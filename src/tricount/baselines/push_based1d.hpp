// Surrogate-style baseline: the space-efficient 1D algorithm of
// Arifuzzaman et al. (paper §4).
//
// Each rank stores only its own block of the degree-ordered DAG — one
// copy of the graph exists across all ranks. For every cut edge (w, u)
// with u owned remotely, Adj+(w) is *pushed* to u's owner, which performs
// the intersection. Pushes are batched into rounds to bound memory,
// matching the paper's description of the approach's high communication
// cost.
#pragma once

#include "tricount/baselines/common1d.hpp"
#include "tricount/kernels/kernels.hpp"

namespace tricount::baselines {

struct PushOptions {
  /// Number of batching rounds for the push phase (>= 1).
  int rounds = 4;
  util::AlphaBetaModel model;
  /// Intersection kernel for the local intersections (shared layer with
  /// the 2D algorithm).
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;
};

/// Algorithm "push". Pre step "preprocess" (DAG build), then the counting
/// superstep (push rounds + local intersections), whose ops are its
/// kernel lookups.
core::RunResult count_triangles_push1d(const graph::EdgeList& graph,
                                       int ranks,
                                       const PushOptions& options = {});

}  // namespace tricount::baselines
