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
  dense_batches_ = dataset.a.density() > kDenseBatchThreshold;
  if (dense_batches_) {
    // One densification pass for the whole solve: every column scattered
    // into its own contiguous run (column-major over the local block).
    // Dense-mode views read only this stage, so no CSC mirror is built.
    const std::size_t m_loc = local_rows();
    stage_.assign(num_features() * m_loc, 0.0);
    for (std::size_t i = 0; i < m_loc; ++i) {
      const auto idx = a_.row_indices(i);
      const auto val = a_.row_values(i);
      for (std::size_t p = 0; p < idx.size(); ++p)
        stage_[idx[p] * m_loc + i] = val[p];
    }
    // Same order (rows ascending) as the CSC pass; the staged zeros add
    // +0.0, so the norms are bitwise those of the sparse path.
    col_norms_.assign(num_features(), 0.0);
    for (std::size_t c = 0; c < num_features(); ++c)
      for (std::size_t i = 0; i < m_loc; ++i)
        col_norms_[c] += stage_[c * m_loc + i] * stage_[c * m_loc + i];
  } else {
    csc_ = la::CscMatrix(a_);
    col_norms_ = csc_.col_norms_squared();  // one O(nnz) pass
  }
  b_.assign(dataset.b.begin() + rows.begin(rank),
            dataset.b.begin() + rows.end(rank));
}

la::BatchView RowBlock::view_columns(std::span<const std::size_t> cols,
                                     la::Workspace& ws) const {
  const std::size_t m_loc = local_rows();
  const std::size_t k = cols.size();
  if (dense_batches_) {
    std::span<const double*> rows = ws.member_rows(k);
    for (std::size_t c = 0; c < k; ++c) {
      SA_CHECK(cols[c] < num_features(), "view_columns: column out of range");
      rows[c] = stage_.data() + cols[c] * m_loc;
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
  if (dense_batches_) {
    const std::size_t n_loc = local_cols();
    stage_.assign(num_points() * n_loc, 0.0);
    for (std::size_t r = 0; r < num_points(); ++r) {
      double* run = stage_.data() + r * n_loc;
      const auto idx = a_.row_indices(r);
      const auto val = a_.row_values(r);
      for (std::size_t p = 0; p < idx.size(); ++p) run[idx[p]] = val[p];
    }
  }
}

la::BatchView ColBlock::view_rows(std::span<const std::size_t> rows,
                                  la::Workspace& ws) const {
  const std::size_t n_loc = local_cols();
  const std::size_t k = rows.size();
  if (dense_batches_) {
    std::span<const double*> ptrs = ws.member_rows(k);
    for (std::size_t r = 0; r < k; ++r) {
      SA_CHECK(rows[r] < num_points(), "view_rows: row out of range");
      ptrs[r] = stage_.data() + rows[r] * n_loc;
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
