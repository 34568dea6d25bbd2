// Havoq-style baseline (Pearce [14], paper §4 and Table 5): distributed
// triangle counting by directed-wedge generation and closure checking.
//
// Pipeline, mirroring the HavoqGT application:
//  1. distributed 2-core decomposition — iteratively peel vertices of
//     degree < 2, which can never be part of a triangle;
//  2. degree ordering of the remaining graph and construction of the
//     directed ("Adj+") adjacency;
//  3. directed wedge generation at each center vertex (all pairs of its
//     higher-ordered neighbours) and 1D-partitioned closure queries: the
//     wedge (a, b) is shipped to a's owner, which checks b ∈ Adj+(a).
//
// The reason this loses to the 2D algorithm by an order of magnitude —
// wedge traffic scales with Σ C(d+,2) rather than the intersection
// volume — is structural and reproduces in the α–β model.
#pragma once

#include "tricount/baselines/common1d.hpp"

namespace tricount::baselines {

struct WedgeOptions {
  /// Batching rounds for wedge generation (bounds peak memory).
  int rounds = 4;
  util::AlphaBetaModel model;
};

/// Algorithm "wedge". Pre step "twocore", whose ops are the vertices it
/// peels (pre_ops()), then the counting superstep "wedge_count" (DAG
/// build, wedge generation and closure checks), whose ops are the wedges
/// it checks (tc_ops()).
core::RunResult count_triangles_wedge(const graph::EdgeList& graph, int ranks,
                                      const WedgeOptions& options = {});

}  // namespace tricount::baselines
