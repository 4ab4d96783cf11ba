#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace beepkit::graph {

graph::graph(std::size_t node_count, std::vector<edge> edges) {
  // Normalize: u < v, validate endpoints.
  for (auto& e : edges) {
    if (e.u == e.v) {
      throw std::invalid_argument("graph: self-loop at node " +
                                  std::to_string(e.u));
    }
    if (e.u >= node_count || e.v >= node_count) {
      throw std::invalid_argument("graph: edge endpoint out of range");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  const auto lexicographic = [](const edge& a, const edge& b) {
    return std::pair(a.u, a.v) < std::pair(b.u, b.v);
  };
  if (!std::is_sorted(edges.begin(), edges.end(), lexicographic)) {
    std::sort(edges.begin(), edges.end(), lexicographic);
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<std::size_t> degrees(node_count, 0);
  for (const auto& e : edges) {
    ++degrees[e.u];
    ++degrees[e.v];
  }

  offsets_.assign(node_count + 1, 0);
  for (std::size_t u = 0; u < node_count; ++u) {
    offsets_[u + 1] = offsets_[u] + degrees[u];
  }
  adjacency_.resize(2 * edges.size());

  // Scattering the sorted edge list leaves every row ascending: row x
  // receives the u of each edge (u, x) first, in ascending u < x, then
  // the w of each edge (x, w), in ascending w > x.
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    adjacency_[cursor[e.u]++] = e.v;
    adjacency_[cursor[e.v]++] = e.u;
  }

  if (node_count > 0) {
    max_degree_ = *std::max_element(degrees.begin(), degrees.end());
    min_degree_ = *std::min_element(degrees.begin(), degrees.end());
  }
  name_ = "graph(n=" + std::to_string(node_count) +
          ",m=" + std::to_string(edges.size()) + ")";
}

bool graph::has_edge(node_id u, node_id v) const {
  if (u >= node_count() || v >= node_count()) return false;
  const auto adj = neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

std::vector<edge> graph::edges() const {
  std::vector<edge> result;
  result.reserve(edge_count());
  for (node_id u = 0; u < node_count(); ++u) {
    for (node_id v : neighbors(u)) {
      if (u < v) result.push_back({u, v});
    }
  }
  return result;
}

}  // namespace beepkit::graph
