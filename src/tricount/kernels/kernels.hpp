// Pluggable set-intersection kernels (the compute hot path of §5.1).
//
// The paper ships two intersection strategies: map-based (hash) and
// list-based (sorted merge). The winning strategy depends on the task
// pair, not the run: galloping search beats both on skewed pairs
// (|long| ≫ |short|), and a dense bitset beats hashing once the hashed
// row covers enough of its id span. This module packages all four as
// interchangeable kernels behind one KernelPolicy switch, plus an
// `auto` policy that picks per task pair from the row lengths and the
// hashed row's density. Every kernel produces the exact same count;
// only the operation mix (and therefore the compute time) differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

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
  /// Galloping wins when one list is at least this many times longer
  /// than the other: the short side pays O(short · log(long/short))
  /// instead of O(short + long).
  static constexpr std::size_t kGallopingSkew = 32;
  /// Bitmap probing needs the hashed row long enough to amortize the
  /// bitset build...
  static constexpr std::size_t kBitmapMinRow = 64;
  /// ...and dense enough over its id span that the bitset stays small
  /// and cache-resident. Density = row length / (max - min + 1).
  static constexpr double kBitmapMinDensity = 0.125;
};

/// Resolves a policy for one task pair. `hashed_len`/`probe_len` are the
/// two row lengths (hashed = the row a reusable structure is built
/// over); `hashed_density` is that row's length divided by its id span.
/// Both lengths must be non-zero (empty rows never reach a kernel).
KernelKind choose_kernel(KernelPolicy policy, std::size_t hashed_len,
                         std::size_t probe_len, double hashed_density);

/// Counter bundle recorded by the counting kernels on each rank.
///
/// `lookups` stays the universal elementary-operation counter across all
/// kernels (it feeds the Figure 2 operation-rate samples): one merge
/// step, one galloping needle, one bitmap test, or one hash lookup each
/// count as one. The per-kernel call/operation pairs below it attribute
/// that aggregate to the kernel that performed it, so `tricount_perf
/// report` can show the kernel mix of a run.
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
