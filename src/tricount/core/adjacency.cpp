#include "tricount/core/adjacency.hpp"

#include <functional>

namespace tricount::core {

void Adjacency::sort_rows() {
  EdgeIndex write = 0;
  EdgeIndex from = 0;  // the row's first entry before compaction
  for (std::size_t r = 0; r < size(); ++r) {
    const auto first = ids.begin() + static_cast<std::ptrdiff_t>(from);
    auto last = ids.begin() + static_cast<std::ptrdiff_t>(offsets[r + 1]);
    from = offsets[r + 1];
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      std::sort(first, last);
      last = std::unique(first, last);
    }
    const auto dest = ids.begin() + static_cast<std::ptrdiff_t>(write);
    if (dest != first) std::copy(first, last, dest);
    write += static_cast<EdgeIndex>(last - first);
    offsets[r + 1] = write;
  }
  ids.resize(write);
}

void append_record(std::vector<VertexId>& bucket, VertexId key,
                   std::span<const VertexId> row) {
  bucket.push_back(key);
  bucket.push_back(static_cast<VertexId>(row.size()));
  bucket.insert(bucket.end(), row.begin(), row.end());
}

}  // namespace tricount::core
