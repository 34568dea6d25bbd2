#include "tricount/core/adjacency.hpp"

#include <functional>
#include <stdexcept>
#include <string>

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

std::span<const VertexId> GhostRows::at(VertexId key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) {
    throw std::out_of_range("GhostRows: no row held for this id");
  }
  return rows[static_cast<std::size_t>(it - keys.begin())];
}

GhostRows unpack_ghosts(const std::vector<std::vector<VertexId>>& requests,
                        const std::vector<std::vector<VertexId>>& buckets,
                        const char* context) {
  auto fail = [context](const char* what) {
    throw std::runtime_error(std::string(context) + what);
  };
  if (requests.size() != buckets.size()) {
    throw std::invalid_argument(std::string(context) +
                                ": one request list per reply bucket");
  }
  // Every request is answered by one record, two header words and its
  // row, so the requests size each array exactly.
  std::size_t asked = 0;
  std::size_t words = 0;
  for (const auto& r : requests) asked += r.size();
  for (const auto& b : buckets) words += b.size();
  GhostRows ghosts;
  ghosts.keys.reserve(asked);
  ghosts.rows.offsets.reserve(asked + 1);
  ghosts.rows.ids.reserve(words - std::min(words, 2 * asked));
  for (std::size_t s = 0; s < buckets.size(); ++s) {
    const auto& bucket = buckets[s];
    const auto& wanted = requests[s];
    std::size_t next = 0;  // wanted[next] is the first id not yet answered
    for (std::size_t at = 0; at < bucket.size();) {
      if (bucket.size() - at < 2 || bucket.size() - at - 2 < bucket[at + 1]) {
        fail(": truncated record");
      }
      const VertexId key = bucket[at];
      const VertexId length = bucket[at + 1];
      if (!ghosts.keys.empty() && key <= ghosts.keys.back()) {
        fail(": ghost ids out of order");
      }
      while (next < wanted.size() && wanted[next] < key) ++next;
      if (next == wanted.size() || wanted[next] != key) {
        fail(": unrequested ghost");
      }
      ++next;
      const auto run = bucket.begin() + static_cast<std::ptrdiff_t>(at + 2);
      ghosts.keys.push_back(key);
      ghosts.rows.ids.insert(ghosts.rows.ids.end(), run, run + length);
      ghosts.rows.offsets.push_back(ghosts.rows.ids.size());
      at += 2 + static_cast<std::size_t>(length);
    }
  }
  return ghosts;
}

}  // namespace tricount::core
