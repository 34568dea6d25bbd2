#include "tricount/core/block_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace tricount::core {

VertexId cyclic_row_count(VertexId n, int q, int residue) {
  const auto r = static_cast<VertexId>(residue);
  if (n <= r) return 0;
  return (n - 1 - r) / static_cast<VertexId>(q) + 1;
}

BlockCsr BlockCsr::from_entries(
    VertexId num_local_rows, std::span<const std::vector<LocalEntry>> buckets) {
  return build(num_local_rows, [&](auto&& emit) {
    for (const auto& bucket : buckets) {
      for (const LocalEntry& e : bucket) emit(e.row, e.col);
    }
  });
}

BlockCsr BlockCsr::from_rows(VertexId num_local_rows, Adjacency rows) {
  // §5.2 notes the sort cost is amortized over the many intersections
  // that rely on sorted order for the backward early exit. Rows that
  // arrive as one ascending run, as all of scatter_2d's do, skip it.
  rows.sort_rows();
  BlockCsr block;
  block.num_local_rows_ = num_local_rows;
  block.xadj_ = std::move(rows.offsets);
  block.adj_ = std::move(rows.ids);
  for (VertexId r = 0; r < num_local_rows; ++r) {
    if (block.row_degree(r) > 0) block.nonempty_.push_back(r);
  }
  return block;
}

void BlockCsr::patch(std::vector<LocalEntry> removed,
                     std::vector<LocalEntry> added) {
  if (removed.empty() && added.empty()) return;  // no copy for a no-op
  std::sort(removed.begin(), removed.end());
  std::sort(added.begin(), added.end());
  if (std::adjacent_find(added.begin(), added.end()) != added.end()) {
    throw std::invalid_argument("BlockCsr::patch: entry added twice");
  }
  std::vector<std::uint64_t> xadj(xadj_.size(), 0);
  std::vector<VertexId> adj;
  adj.reserve(adj_.size() + added.size());
  // Copies the untouched rows [from, to) in one run, shifting their
  // offsets to where the run lands.
  auto copy_rows = [&](VertexId from, VertexId to) {
    const std::uint64_t base = adj.size();
    adj.insert(adj.end(),
               adj_.begin() + static_cast<std::ptrdiff_t>(xadj_[from]),
               adj_.begin() + static_cast<std::ptrdiff_t>(xadj_[to]));
    for (VertexId r = from; r < to; ++r) {
      xadj[r + 1] = xadj_[r + 1] - xadj_[from] + base;
    }
  };
  auto del = removed.cbegin();
  auto ins = added.cbegin();
  VertexId next = 0;  // first row not yet written
  while (del != removed.cend() || ins != added.cend()) {
    const VertexId r =
        std::min(del != removed.cend() ? del->row : ~VertexId{0},
                 ins != added.cend() ? ins->row : ~VertexId{0});
    if (r >= num_local_rows_) {
      throw std::out_of_range("BlockCsr::patch: entry row out of range");
    }
    copy_rows(next, r);
    // Three cursors over row r: its columns, its removals, its additions.
    const auto cols = row(r);
    auto col = cols.begin();
    const auto adding = [&] { return ins != added.cend() && ins->row == r; };
    while (col != cols.end() || adding()) {
      if (adding() && (col == cols.end() || ins->col < *col)) {
        adj.push_back((ins++)->col);
      } else if (adding() && ins->col == *col) {
        throw std::invalid_argument("BlockCsr::patch: added entry present");
      } else if (del != removed.cend() && del->row == r && del->col == *col) {
        ++del;
        ++col;
      } else {
        adj.push_back(*col++);
      }
    }
    if (del != removed.cend() && del->row == r) {
      throw std::invalid_argument("BlockCsr::patch: removed entry absent");
    }
    xadj[r + 1] = adj.size();
    next = r + 1;
  }
  copy_rows(next, num_local_rows_);
  xadj_ = std::move(xadj);
  adj_ = std::move(adj);
  nonempty_.clear();
  for (VertexId r = 0; r < num_local_rows_; ++r) {
    if (row_degree(r) > 0) nonempty_.push_back(r);
  }
}

VertexId BlockCsr::max_row_degree() const {
  VertexId best = 0;
  for (const VertexId r : nonempty_) best = std::max(best, row_degree(r));
  return best;
}

std::vector<std::byte> BlockCsr::to_blob() const {
  util::BlobWriter writer;
  writer.add_scalar<std::uint64_t>(num_local_rows_);
  writer.add_section(xadj_);
  writer.add_section(adj_);
  writer.add_section(nonempty_);
  return writer.take();
}

BlockCsr BlockCsr::from_blob(std::span<const std::byte> blob) {
  util::BlobReader reader(blob);
  BlockCsr block;
  block.num_local_rows_ =
      static_cast<VertexId>(reader.next_scalar<std::uint64_t>());
  const auto xadj = reader.next_section<std::uint64_t>();
  const auto adj = reader.next_section<VertexId>();
  const auto nonempty = reader.next_section<VertexId>();
  block.xadj_.assign(xadj.begin(), xadj.end());
  block.adj_.assign(adj.begin(), adj.end());
  block.nonempty_.assign(nonempty.begin(), nonempty.end());
  return block;
}

void BlockCsr::validate() const {
  if (xadj_.size() != static_cast<std::size_t>(num_local_rows_) + 1 ||
      xadj_.front() != 0 || xadj_.back() != adj_.size()) {
    throw std::runtime_error("BlockCsr: xadj shape invalid");
  }
  std::vector<VertexId> expected_nonempty;
  for (VertexId r = 0; r < num_local_rows_; ++r) {
    if (xadj_[r] > xadj_[r + 1]) {
      throw std::runtime_error("BlockCsr: xadj not monotone");
    }
    const auto cols = row(r);
    for (std::size_t i = 1; i < cols.size(); ++i) {
      if (cols[i - 1] >= cols[i]) {
        throw std::runtime_error("BlockCsr: row not strictly sorted");
      }
    }
    if (!cols.empty()) expected_nonempty.push_back(r);
  }
  if (expected_nonempty != nonempty_) {
    throw std::runtime_error("BlockCsr: nonempty row list inconsistent");
  }
}

}  // namespace tricount::core
