// Algorithm configuration: every optimization from paper §5.2 plus the
// enumeration scheme from §3.1 and the intersection kernel policy is a
// switch, so the §7.3 ablation benchmarks can turn each one off
// independently.
#pragma once

#include <string>

#include "tricount/kernels/kernels.hpp"

namespace tricount::core {

/// Triangle enumeration rule (§3.1). kJIK tasks come from the non-zeros
/// of L and hash the higher-degree endpoint's list (the paper's choice,
/// 72.8% faster); kIJK tasks come from U.
enum class Enumeration { kJIK, kIJK };

struct Config {
  Enumeration enumeration = Enumeration::kJIK;

  /// Which set-intersection kernel the compute phase runs (`--kernel`).
  /// kAuto picks per task pair from row lengths and density; kHash is the
  /// paper's map-based kernel, kMerge its list-based kernel; kGalloping
  /// and kBitmap are the skew/density specialists (docs/kernels.md).
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;

  /// §3.1: relabel vertices into non-decreasing degree order before
  /// counting. Disabling keeps counts exact (the U/L split then follows
  /// raw vertex ids) but loses the balance and intersection-size benefits
  /// the paper attributes to the ordering — an ablation knob.
  bool degree_ordering = true;

  /// §5.2 "doubly sparse traversal": iterate only non-empty task rows via
  /// the DCSR row list instead of all n/√p local rows.
  bool doubly_sparse = true;

  /// §5.2 "modifying the hashing routine for sparser vertices": try
  /// probe-free direct hashing for short lists.
  bool modified_hashing = true;

  /// §5.2 "eliminating unnecessary intersection operations": traverse the
  /// lookup list backwards and break at the hashed list's minimum.
  bool backward_early_exit = true;

  /// §5.2 "reducing overheads associated with communication": ship each
  /// block as one contiguous blob instead of per-array messages.
  bool blob_comm = true;

  /// Overlap communication with computation (`--overlap`): post the next
  /// superstep's U/L shift (Cannon) or prefetch the next panel (SUMMA)
  /// with isend/irecv before running the current superstep's
  /// intersections, and complete it afterwards. Counts are unchanged; the
  /// α–β model then charges max(compute, network) per overlapped
  /// superstep instead of their sum (docs/overlap.md). Off by default, as
  /// in the paper's algorithm.
  bool overlap = false;

  std::string describe() const;
};

const char* to_string(Enumeration e);

}  // namespace tricount::core
