#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_map>

namespace perfbench {

using asyncmr::graph::Digraph;
using asyncmr::graph::VertexId;

std::vector<double> ReferencePageRank(const Digraph& g, double damping) {
  const VertexId n = g.num_vertices();
  std::vector<double> ranks(n, 1.0);
  std::vector<double> sums(n);
  for (int iter = 0; iter < 100'000; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    for (VertexId s = 0; s < n; ++s) {
      const auto out = g.OutNeighbors(s);
      if (out.empty()) continue;
      const double share = ranks[s] / static_cast<double>(out.size());
      for (VertexId d : out) sums[d] += share;
    }
    double moved = 0.0;
    for (VertexId d = 0; d < n; ++d) {
      const double next = (1.0 - damping) + damping * sums[d];
      moved = std::max(moved, std::abs(next - ranks[d]));
      ranks[d] = next;
    }
    if (moved < 1e-12) break;
  }
  return ranks;
}

CheckResult CheckPageRank(const std::vector<double>& ranks,
                          const std::vector<double>& reference) {
  if (ranks.size() != reference.size()) return {false, INFINITY};
  double error = 0.0;
  for (size_t v = 0; v < ranks.size(); ++v) {
    const double e = std::abs(ranks[v] - reference[v]);
    error = std::isnan(e) ? INFINITY : std::max(error, e);
  }
  return {error <= kPageRankMaxError, error};
}

std::vector<double> ReferenceDistances(const Digraph& g, VertexId source) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_vertices(), inf);
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    const auto out = g.OutNeighbors(u);
    const auto w = g.OutWeights(u);
    for (size_t i = 0; i < out.size(); ++i) {
      const double candidate = d + (w.empty() ? 1.0 : w[i]);
      if (candidate < dist[out[i]]) {
        dist[out[i]] = candidate;
        heap.push({candidate, out[i]});
      }
    }
  }
  return dist;
}

CheckResult CheckDistances(const std::vector<double>& distances,
                           const std::vector<double>& reference) {
  if (distances.size() != reference.size()) return {false, INFINITY};
  double error = 0.0;
  for (size_t v = 0; v < distances.size(); ++v) {
    if (distances[v] == reference[v]) continue;
    const double e = std::abs(distances[v] - reference[v]);
    error = std::isnan(e) ? INFINITY : std::max(error, e);
  }
  return {error == 0.0, error};
}

std::vector<uint32_t> ReferenceComponents(const Digraph& g) {
  std::vector<uint32_t> parent(g.num_vertices());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto root = [&](uint32_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      const uint32_t a = root(u);
      const uint32_t b = root(v);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<uint32_t> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) labels[v] = root(v);
  return labels;
}

CheckResult CheckComponents(const std::vector<uint32_t>& labels,
                            const std::vector<uint32_t>& reference) {
  if (labels.size() != reference.size()) return {false, INFINITY};
  // The first vertex seen of each reference component fixes its label; the
  // mapping must be one-to-one in both directions.
  std::unordered_map<uint32_t, uint32_t> to_got;
  std::unordered_map<uint32_t, uint32_t> to_ref;
  uint64_t wrong = 0;
  for (size_t v = 0; v < labels.size(); ++v) {
    const auto a = to_got.emplace(reference[v], labels[v]).first;
    const auto b = to_ref.emplace(labels[v], reference[v]).first;
    if (a->second != labels[v] || b->second != reference[v]) ++wrong;
  }
  return {wrong == 0, static_cast<double>(wrong)};
}

CheckResult CheckJacobi(const Digraph& g, const std::vector<double>& b,
                        const std::vector<double>& x, double tolerance) {
  const VertexId n = g.num_vertices();
  if (x.size() != n || b.size() != n) return {false, INFINITY};
  std::vector<double> ax(n);
  std::vector<uint32_t> degree(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      ++degree[u];
      ++degree[v];
      ax[u] -= x[v];
      ax[v] -= x[u];
    }
  }
  double residual = 0.0;
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    ax[v] += (degree[v] + 1.0) * x[v];
    const double r = std::abs(ax[v] - b[v]);
    residual = std::isnan(r) ? INFINITY : std::max(residual, r);
    max_degree = std::max(max_degree, degree[v]);
  }
  const double bound = 10.0 * (max_degree + 1.0) * tolerance;
  return {residual <= bound, residual};
}

}  // namespace perfbench
