#include "core/local_data.hpp"

#include "common/check.hpp"
#include "la/vector_ops.hpp"

namespace sa::core {

RowBlock::RowBlock(const data::Dataset& dataset, const data::Partition& rows,
                   int rank) {
  dataset.validate();
  SA_CHECK(rows.total() == dataset.num_points(),
           "RowBlock: partition does not cover the dataset rows");
  SA_CHECK(rank >= 0 && rank < rows.num_ranks(), "RowBlock: bad rank");
  a_ = dataset.a.row_slice(rows.begin(rank), rows.end(rank));
  csc_ = la::CscMatrix(a_);
  col_norms_ = csc_.col_norms_squared();  // one O(nnz) pass at construction
  b_.assign(dataset.b.begin() + rows.begin(rank),
            dataset.b.begin() + rows.end(rank));
  dense_batches_ = dataset.a.density() > kDenseBatchThreshold;
}

const std::vector<double>& RowBlock::staged_columns() const {
  // One densification pass for the whole solve: every column scattered
  // into its own contiguous run (column-major over the local block).  The
  // same values the per-iteration scatter produced, paid once instead of
  // once per round.
  if (stage_.empty()) {
    const std::size_t m_loc = local_rows();
    // sa-lint: allow(alloc): one-time lazy densification, empty-guarded
    stage_.assign(num_features() * m_loc, 0.0);
    for (std::size_t c = 0; c < num_features(); ++c) {
      double* run = stage_.data() + c * m_loc;
      const auto idx = csc_.col_indices(c);
      const auto val = csc_.col_values(c);
      for (std::size_t p = 0; p < idx.size(); ++p) run[idx[p]] = val[p];
    }
  }
  return stage_;
}

la::BatchView RowBlock::view_columns(std::span<const std::size_t> cols,
                                     la::Workspace& ws) const {
  const std::size_t m_loc = local_rows();
  const std::size_t k = cols.size();
  if (dense_batches_) {
    const std::vector<double>& stage = staged_columns();
    std::span<const double*> rows = ws.member_rows(k);
    for (std::size_t c = 0; c < k; ++c) {
      SA_CHECK(cols[c] < num_features(), "view_columns: column out of range");
      rows[c] = stage.data() + cols[c] * m_loc;
    }
    return la::BatchView::dense(rows, m_loc);
  }
  std::span<std::span<const std::size_t>> idx = ws.member_index_spans(k);
  std::span<std::span<const double>> val = ws.member_value_spans(k);
  for (std::size_t c = 0; c < k; ++c) {
    SA_CHECK(cols[c] < num_features(), "view_columns: column out of range");
    idx[c] = csc_.col_indices(cols[c]);
    val[c] = csc_.col_values(cols[c]);
  }
  return la::BatchView::sparse(idx, val, m_loc);
}

ColBlock::ColBlock(const data::Dataset& dataset, const data::Partition& cols,
                   int rank) {
  dataset.validate();
  SA_CHECK(cols.total() == dataset.num_features(),
           "ColBlock: partition does not cover the dataset columns");
  SA_CHECK(rank >= 0 && rank < cols.num_ranks(), "ColBlock: bad rank");
  a_ = dataset.a.col_slice(cols.begin(rank), cols.end(rank));
  b_ = dataset.b;  // labels replicated
  dense_batches_ = dataset.a.density() > kDenseBatchThreshold;
}

const std::vector<double>& ColBlock::staged_rows() const {
  if (stage_.empty()) {
    const std::size_t n_loc = local_cols();
    // sa-lint: allow(alloc): one-time lazy densification, empty-guarded
    stage_.assign(num_points() * n_loc, 0.0);
    for (std::size_t r = 0; r < num_points(); ++r) {
      double* run = stage_.data() + r * n_loc;
      const auto idx = a_.row_indices(r);
      const auto val = a_.row_values(r);
      for (std::size_t p = 0; p < idx.size(); ++p) run[idx[p]] = val[p];
    }
  }
  return stage_;
}

la::BatchView ColBlock::view_rows(std::span<const std::size_t> rows,
                                  la::Workspace& ws) const {
  const std::size_t n_loc = local_cols();
  const std::size_t k = rows.size();
  if (dense_batches_) {
    const std::vector<double>& stage = staged_rows();
    std::span<const double*> ptrs = ws.member_rows(k);
    for (std::size_t r = 0; r < k; ++r) {
      SA_CHECK(rows[r] < num_points(), "view_rows: row out of range");
      ptrs[r] = stage.data() + rows[r] * n_loc;
    }
    return la::BatchView::dense(ptrs, n_loc);
  }
  std::span<std::span<const std::size_t>> idx = ws.member_index_spans(k);
  std::span<std::span<const double>> val = ws.member_value_spans(k);
  for (std::size_t r = 0; r < k; ++r) {
    SA_CHECK(rows[r] < num_points(), "view_rows: row out of range");
    idx[r] = a_.row_indices(rows[r]);
    val[r] = a_.row_values(rows[r]);
  }
  return la::BatchView::sparse(idx, val, n_loc);
}

}  // namespace sa::core
