// AOP-style baseline: the communication-avoiding 1D algorithm with
// overlapping partitions of Arifuzzaman et al. (paper §4).
//
// Each rank owns a 1D block of the degree-ordered DAG and additionally
// fetches ("overlaps") the Adj+ list of every non-local vertex referenced
// by its own lists. Counting is then entirely local — zero communication
// in the counting phase — at the cost of the ghost-list memory overhead
// the paper criticizes.
#pragma once

#include "tricount/baselines/common1d.hpp"
#include "tricount/kernels/kernels.hpp"

namespace tricount::baselines {

struct AopOptions {
  util::AlphaBetaModel model;
  /// Intersection kernel for the counting phase (shared layer with the
  /// 2D algorithm; kMerge reproduces the historical inline merge loop).
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;
};

/// Algorithm "aop". Pre steps "preprocess" (DAG build) and "overlap"
/// (ghost exchange), then the counting superstep (local counting), whose
/// ops are its kernel lookups.
core::RunResult count_triangles_aop1d(const graph::EdgeList& graph, int ranks,
                                      const AopOptions& options = {});

}  // namespace tricount::baselines
