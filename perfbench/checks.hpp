// Independent correctness checks: every solve the benchmark times is checked
// against an answer the benchmark computes itself, from the definitions in
// the paper and the app headers, not from the library's own oracles. A solve
// whose check fails counts as a failed solve.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

struct CheckResult {
  bool passed = false;
  /// The measure the check bounds: max-abs rank error, max distance error,
  /// mislabelled vertices, or ||Ax - b||_inf.
  double error = 0.0;
};

/// Largest rank error a PageRank solve may have against the reference.
inline constexpr double kPageRankMaxError = 1e-3;

/// Power iteration of the paper's Equation (1), PR(d) = (1 - chi) +
/// chi * sum PR(s)/outdeg(s), from all-ones until the update moves no rank by
/// 1e-12.
std::vector<double> ReferencePageRank(const asyncmr::graph::Digraph& g,
                                      double damping);
CheckResult CheckPageRank(const std::vector<double>& ranks,
                          const std::vector<double>& reference);

/// Dijkstra over the edge weights; the distances must match exactly.
std::vector<double> ReferenceDistances(const asyncmr::graph::Digraph& g,
                                       asyncmr::graph::VertexId source);
CheckResult CheckDistances(const std::vector<double>& distances,
                           const std::vector<double>& reference);

/// Union-find over the edges taken as undirected. The check compares
/// partitions, not label values: it counts vertices whose label disagrees
/// with the one-to-one label mapping the reference implies.
std::vector<uint32_t> ReferenceComponents(const asyncmr::graph::Digraph& g);
CheckResult CheckComponents(const std::vector<uint32_t>& labels,
                            const std::vector<uint32_t>& reference);

/// ||Ax - b||_inf with A = D + I - Adj over the symmetrized edge multiset of
/// `g` (each edge u->v adds v->u; D counts both), recomputed from `g` itself.
/// Jacobi stops when an update moves no entry by `tolerance`; row v's
/// residual is (deg(v)+1) times its last move, so the bound is
/// (max_deg + 1) * tolerance, times 10 for the asynchronous endgame.
CheckResult CheckJacobi(const asyncmr::graph::Digraph& g,
                        const std::vector<double>& b,
                        const std::vector<double>& x, double tolerance);

}  // namespace perfbench
