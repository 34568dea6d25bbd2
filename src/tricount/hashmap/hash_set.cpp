#include "tricount/hashmap/hash_set.hpp"

#include <stdexcept>

namespace tricount::hashmap {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void VertexHashSet::reserve_for(std::size_t list_len) {
  // 4x headroom keeps the probing load factor <= 0.25 and makes the
  // direct-mode heuristic succeed often on short lists.
  const std::size_t wanted = next_power_of_two(std::max<std::size_t>(16, list_len * 4));
  if (wanted <= slots_.size()) return;
  slots_.assign(wanted, kEmpty);
  touched_.clear();
  mask_ = wanted - 1;
}

void VertexHashSet::clear_touched() {
  for (const std::uint32_t at : touched_) slots_[at] = kEmpty;
  touched_.clear();
}

void VertexHashSet::insert_probing(Key key) {
  std::size_t at = key & mask_;
  while (slots_[at] != kEmpty) {
    if (slots_[at] == key) return;  // duplicate
    ++probes_;
    at = (at + 1) & mask_;
  }
  slots_[at] = key;
  touched_.push_back(static_cast<std::uint32_t>(at));
}

VertexHashSet::Mode VertexHashSet::build(std::span<const Key> keys,
                                         bool allow_direct) {
  reserve_for(keys.size());
  clear_touched();

  if (allow_direct && keys.size() < direct_threshold(slots_.size())) {
    // Optimistic probe-free insertion (§5.2). On the average, after the 2D
    // decomposition, lists are √p shorter, so this nearly always succeeds.
    mode_ = Mode::kDirect;
    for (const Key key : keys) {
      if (key == kEmpty) {
        clear_touched();
        throw std::invalid_argument("VertexHashSet: reserved key inserted");
      }
      const std::size_t at = key & mask_;
      if (slots_[at] == kEmpty) {
        slots_[at] = key;
        touched_.push_back(static_cast<std::uint32_t>(at));
      } else if (slots_[at] != key) {
        // Collision: the heuristic was wrong for this list. Restart in
        // probing mode so correctness never depends on the heuristic.
        clear_touched();
        mode_ = Mode::kProbing;
        break;
      }
    }
    if (mode_ == Mode::kDirect) return mode_;
  } else {
    mode_ = Mode::kProbing;
  }

  for (const Key key : keys) {
    if (key == kEmpty) {
      clear_touched();
      throw std::invalid_argument("VertexHashSet: reserved key inserted");
    }
    insert_probing(key);
  }
  return mode_;
}

bool VertexHashSet::contains(Key key) const {
  if (slots_.empty()) return false;
  std::size_t at = key & mask_;
  if (mode_ == Mode::kDirect) {
    return slots_[at] == key;
  }
  while (slots_[at] != kEmpty) {
    if (slots_[at] == key) return true;
    ++probes_;
    at = (at + 1) & mask_;
  }
  return false;
}

}  // namespace tricount::hashmap
