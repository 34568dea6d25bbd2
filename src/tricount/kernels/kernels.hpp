// Pluggable set-intersection kernels (the compute hot path of §5.1).
//
// The paper ships two intersection strategies: map-based (hash) and
// list-based (sorted merge). The winning strategy depends on the task
// pair, not the run: galloping search beats both on skewed pairs
// (|long| ≫ |short|), and a bitset over the hashed row beats hashing
// whenever that bitset fits a cache-sized budget. This module packages
// all four as interchangeable kernels behind one KernelPolicy switch,
// plus an `auto` policy that picks per task pair from the row lengths
// and the hashed row's largest id. Every kernel produces the exact same
// count; only the operation mix (and therefore the compute time)
// differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tricount/graph/types.hpp"

namespace tricount::kernels {

/// The user-facing kernel switch (`--kernel`). kAuto resolves to one of
/// the four concrete kernels per task pair; the rest force one kernel
/// for every pair.
enum class KernelPolicy { kAuto, kMerge, kGalloping, kBitmap, kHash };

/// The concrete kernel a task pair actually ran (kAuto resolved).
enum class KernelKind { kMerge, kGalloping, kBitmap, kHash };

const char* to_string(KernelPolicy policy);
const char* to_string(KernelKind kind);

/// Parses "auto|merge|galloping|bitmap|hash" into `out`. Returns false
/// (leaving `out` untouched) on any other spelling.
bool parse_policy(std::string_view name, KernelPolicy& out);

/// The kAuto selection thresholds (see docs/kernels.md for the
/// rationale and the measurements behind the constants).
struct AutoThresholds {
  /// Galloping wins when the probe is at least this many times longer
  /// than the hashed row: the row's ids pay O(short · log(long/short))
  /// instead of O(long) bitmap tests or hash lookups. A hashed row that
  /// is the long side never gallops; its bitmap or hash set is built
  /// once and serves every short probe of the row at O(short) each.
  static constexpr std::size_t kGallopingSkew = 32;
  /// Otherwise the bitmap wins whenever the hashed row's largest id is
  /// below this universe: its bitset is then at most 512 KiB, and with
  /// the §5.2 clip a task reads only the words between the row's min and
  /// max (docs/kernels.md has the sweep behind the constant).
  static constexpr graph::VertexId kBitmapMaxUniverse = 1u << 22;
};

/// Resolves a policy for one task pair. `hashed_len`/`probe_len` are the
/// two row lengths (hashed = the row a reusable structure is built
/// over); `hashed_max` is that row's largest id. Both lengths must be
/// non-zero (empty rows never reach a kernel). kAuto returns galloping
/// iff probe_len >= kGallopingSkew · hashed_len, else bitmap iff
/// hashed_max < kBitmapMaxUniverse, else hash. Inline: the row call
/// resolves it once per task.
inline KernelKind choose_kernel(KernelPolicy policy, std::size_t hashed_len,
                                std::size_t probe_len,
                                graph::VertexId hashed_max) {
  switch (policy) {
    case KernelPolicy::kMerge: return KernelKind::kMerge;
    case KernelPolicy::kGalloping: return KernelKind::kGalloping;
    case KernelPolicy::kBitmap: return KernelKind::kBitmap;
    case KernelPolicy::kHash: return KernelKind::kHash;
    case KernelPolicy::kAuto: break;
  }
  if (probe_len >= AutoThresholds::kGallopingSkew * hashed_len) {
    return KernelKind::kGalloping;
  }
  return hashed_max < AutoThresholds::kBitmapMaxUniverse ? KernelKind::kBitmap
                                                         : KernelKind::kHash;
}

/// Counter bundle recorded by the counting kernels on each rank.
///
/// `lookups` stays the universal elementary-operation counter across all
/// kernels (it feeds the Figure 2 operation-rate samples): one merge
/// step, one galloping needle, one bitmap test, or one hash lookup each
/// count as one. The per-kernel call/operation pairs below it attribute
/// that aggregate to the kernel that performed it, so `tricount_perf
/// report` can show the kernel mix of a run. The kernels tally in
/// locals and add to these fields once per call.
struct KernelCounters {
  std::uint64_t intersection_tasks = 0;  ///< intersections performed
  std::uint64_t lookups = 0;             ///< elementary ops, all kernels
  std::uint64_t hits = 0;                ///< matches found = triangles
  std::uint64_t probes = 0;              ///< hash probe steps
  std::uint64_t hash_builds = 0;         ///< rows hashed
  std::uint64_t direct_builds = 0;       ///< rows hashed in direct mode
  std::uint64_t rows_visited = 0;        ///< task rows iterated
  std::uint64_t early_exits = 0;         ///< below-minimum traversal breaks

  // Per-kernel attribution: <kernel>_calls counts task pairs routed to
  // the kernel, the second field its elementary operations.
  std::uint64_t merge_calls = 0;
  std::uint64_t merge_steps = 0;      ///< merge loop iterations
  std::uint64_t galloping_calls = 0;
  std::uint64_t galloping_steps = 0;  ///< jump + binary-search comparisons
  std::uint64_t bitmap_calls = 0;
  std::uint64_t bitmap_tests = 0;     ///< bitset membership tests
  std::uint64_t bitmap_builds = 0;    ///< rows materialized as bitsets
  std::uint64_t hash_calls = 0;
  std::uint64_t hash_lookups = 0;     ///< VertexHashSet::contains calls

  KernelCounters& operator+=(const KernelCounters& other);
  bool operator==(const KernelCounters&) const = default;
};

}  // namespace tricount::kernels
