// The hash set used for map-based set intersection (paper §3.1, §5.2).
//
// One adjacency list (the hashed row) is inserted, then the other list's
// entries are looked up; each hit closes a triangle. Capacities are powers
// of two so the slot index is a single bitwise AND (`key & mask`).
//
// Two operating modes implement the paper's "modifying the hashing routine
// for sparser vertices" optimization:
//  * kDirect  -- insertion attempted with no probing: slot = key & mask.
//                If every key of the list lands in its own slot (which the
//                paper's heuristic predicts for short lists after the 2D
//                decomposition shrinks adjacency lists by ~√p), lookups are
//                a single load + compare. If a collision *does* occur we
//                fall back to probing, so counts stay exact regardless of
//                the heuristic's accuracy.
//  * kProbing -- classic linear probing.
//
// The structure also counts probe steps, which §7.1 of the paper uses to
// explain the twitter-vs-friendster speedup difference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tricount::hashmap {

class VertexHashSet {
 public:
  using Key = std::uint32_t;
  /// Sentinel marking an empty slot; may not be used as a vertex id.
  static constexpr Key kEmpty = ~Key{0};

  enum class Mode { kDirect, kProbing };

  VertexHashSet() = default;

  /// Ensures capacity for a list of `list_len` keys with a comfortable
  /// load factor. Never shrinks. Invalidates current contents.
  void reserve_for(std::size_t list_len);

  /// Clears previous contents and inserts `keys`.
  ///
  /// If `allow_direct` and the list is no longer than the paper's
  /// heuristic threshold, insertion first tries direct (probe-free) mode;
  /// on the first collision the build restarts in probing mode.
  /// Returns the mode that ended up in effect. Duplicate keys are allowed
  /// (idempotent). kEmpty must not appear in `keys`.
  Mode build(std::span<const Key> keys, bool allow_direct);

  /// Membership test. Valid only after build().
  bool contains(Key key) const;

  /// Number of slots (power of two). 0 before the first reserve/build.
  std::size_t capacity() const { return slots_.size(); }
  Mode mode() const { return mode_; }
  std::size_t size() const { return touched_.size(); }

  /// Total probe steps performed by build() and contains() since the last
  /// reset_probes(). A "probe step" is one slot inspection beyond the
  /// initial masked index.
  std::uint64_t probes() const { return probes_; }
  void reset_probes() { probes_ = 0; }

  /// The heuristic from §5.2: a list is treated as collision-free material
  /// when it is shorter than this fraction of the table.
  static std::size_t direct_threshold(std::size_t capacity) {
    return capacity / 2;
  }

 private:
  void clear_touched();
  void insert_probing(Key key);

  std::vector<Key> slots_;
  /// Slot indices written by the current build; enables O(list) clears
  /// instead of O(capacity) fills.
  std::vector<std::uint32_t> touched_;
  std::size_t mask_ = 0;
  Mode mode_ = Mode::kProbing;
  mutable std::uint64_t probes_ = 0;
};

/// Rounds up to the next power of two (min 1).
std::size_t next_power_of_two(std::size_t n);

}  // namespace tricount::hashmap
