#include "core/local_data.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sa::core {

namespace {

/// The member-view routine of both blocks: member r is row r of `csr`
/// (sparse mode) or the length-`dim` run at stage[r·dim] (dense mode),
/// for r < `count`.
la::BatchView view_members(std::span<const std::size_t> members,
                           std::size_t count, std::size_t dim, bool dense,
                           const la::CsrMatrix& csr,
                           const std::vector<double>& stage,
                           la::Workspace& ws) {
  const std::size_t k = members.size();
  if (dense) {
    std::span<const double*> rows = ws.member_rows(k);
    for (std::size_t q = 0; q < k; ++q) {
      SA_CHECK(members[q] < count, "view: member out of range");
      rows[q] = stage.data() + members[q] * dim;
    }
    return la::BatchView::dense(rows, dim);
  }
  std::span<std::span<const std::size_t>> idx = ws.member_index_spans(k);
  std::span<std::span<const double>> val = ws.member_value_spans(k);
  for (std::size_t q = 0; q < k; ++q) {
    SA_CHECK(members[q] < count, "view: member out of range");
    idx[q] = csr.row_indices(members[q]);
    val[q] = csr.row_values(members[q]);
  }
  return la::BatchView::sparse(idx, val, dim);
}

}  // namespace

RowBlock::RowBlock(const data::Dataset& dataset, const data::Partition& rows,
                   int rank) {
  dataset.validate();
  SA_CHECK(rows.total() == dataset.num_points(),
           "RowBlock: partition does not cover the dataset rows");
  SA_CHECK(rank >= 0 && rank < rows.num_ranks(), "RowBlock: bad rank");
  const std::size_t begin = rows.begin(rank);
  local_rows_ = rows.end(rank) - begin;
  num_features_ = dataset.num_features();
  dense_batches_ = dataset.a.density() > kDenseBatchThreshold;
  if (dense_batches_) {
    // One densification pass for the whole solve: every column scattered
    // into its own contiguous run (column-major over the local block),
    // straight from the dataset's rows.
    stage_.assign(num_features_ * local_rows_, 0.0);
    for (std::size_t i = 0; i < local_rows_; ++i) {
      const auto idx = dataset.a.row_indices(begin + i);
      const auto val = dataset.a.row_values(begin + i);
      for (std::size_t p = 0; p < idx.size(); ++p)
        stage_[idx[p] * local_rows_ + i] = val[p];
    }
  } else {
    columns_ = dataset.a.transposed(begin, rows.end(rank));
  }
  b_.assign(dataset.b.begin() + begin, dataset.b.begin() + rows.end(rank));
}

la::BatchView RowBlock::view_columns(std::span<const std::size_t> cols,
                                     la::Workspace& ws) const {
  return view_members(cols, num_features_, local_rows_, dense_batches_,
                      columns_, stage_, ws);
}

ColBlock::ColBlock(const data::Dataset& dataset, const data::Partition& cols,
                   int rank) {
  dataset.validate();
  SA_CHECK(cols.total() == dataset.num_features(),
           "ColBlock: partition does not cover the dataset columns");
  SA_CHECK(rank >= 0 && rank < cols.num_ranks(), "ColBlock: bad rank");
  const std::size_t begin = cols.begin(rank);
  const std::size_t end = cols.end(rank);
  num_points_ = dataset.num_points();
  local_cols_ = end - begin;
  b_ = dataset.b;  // labels replicated
  dense_batches_ = dataset.a.density() > kDenseBatchThreshold;
  if (!dense_batches_) {
    a_ = dataset.a.col_slice(begin, end);
    return;
  }
  // One densification pass, straight from the dataset's rows: each row's
  // in-block nonzeros scattered into its own contiguous run.
  stage_.assign(num_points_ * local_cols_, 0.0);
  for (std::size_t r = 0; r < num_points_; ++r) {
    double* run = stage_.data() + r * local_cols_;
    const auto idx = dataset.a.row_indices(r);
    const auto val = dataset.a.row_values(r);
    for (std::size_t p = static_cast<std::size_t>(
             std::lower_bound(idx.begin(), idx.end(), begin) - idx.begin());
         p < idx.size() && idx[p] < end; ++p)
      run[idx[p] - begin] = val[p];
  }
}

la::BatchView ColBlock::view_rows(std::span<const std::size_t> rows,
                                  la::Workspace& ws) const {
  return view_members(rows, num_points_, local_cols_, dense_batches_, a_,
                      stage_, ws);
}

void ColBlock::margin_chunks(std::span<const double> x,
                             std::span<const std::size_t> bounds,
                             std::size_t row_begin, std::size_t row_end,
                             std::span<double> out) const {
  if (!dense_batches_) {
    a_.spmv_col_chunks(x, bounds, row_begin, row_end, out);
    return;
  }
  SA_CHECK(row_begin <= row_end && row_end <= num_points_,
           "margin_chunks: invalid row range");
  const std::size_t rows = row_end - row_begin;
  const std::size_t n = bounds.size() - 1;
  SA_CHECK(!bounds.empty() && x.size() == local_cols_ &&
               out.size() == n * rows,
           "margin_chunks: dimension mismatch");
  SA_CHECK(bounds.back() <= local_cols_ &&
               std::is_sorted(bounds.begin(), bounds.end()),
           "margin_chunks: invalid chunk bounds");
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const double* run = stage_.data() + i * local_cols_;
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t j = bounds[c]; j < bounds[c + 1]; ++j)
        acc += run[j] * x[j];
      out[c * rows + (i - row_begin)] = acc;
    }
  }
}

}  // namespace sa::core
