// Distributed k-truss support counting on top of the 2D triangle
// machinery — the application the paper's introduction names first.
//
// Truss decomposition splits into (a) per-edge triangle-support counting
// — the computation the paper's algorithm parallelizes — and (b) a cheap
// support-peeling pass. This module distributes (a) with the 2D counter's
// own sweep under its edge-support tally (counter2d.hpp): every triangle
// closed during the Cannon shifts credits its three edges; credits are
// reduced to per-edge owners in new-id space,
// translated back to the caller's original ids, and aligned with the
// simplified edge order. Peeling then reuses the serial bucket-queue
// (graph/ktruss), so `ktruss_2d` returns a decomposition bit-identical to
// the serial one.
#pragma once

#include <vector>

#include "tricount/core/driver.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/ktruss.hpp"

namespace tricount::core {

/// Distributed per-edge triangle support. Result is aligned with the
/// simplified input's edge order (as graph::edge_supports).
std::vector<graph::TriangleCount> edge_supports_2d(
    const graph::EdgeList& simplified, int ranks,
    const RunOptions& options = {});

/// Full truss decomposition with distributed support counting.
graph::KtrussResult ktruss_2d(const graph::EdgeList& simplified, int ranks,
                              const RunOptions& options = {});

}  // namespace tricount::core
