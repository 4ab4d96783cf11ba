#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace beepkit::graph {
namespace {

/// Every node in BFS order, component by component from the smallest
/// id. Nodes close in this order are close in the graph.
std::vector<node_id> bfs_order(const graph& g) {
  const std::size_t n = g.node_count();
  std::vector<node_id> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  for (node_id root = 0; root < n; ++root) {
    if (visited[root]) continue;
    visited[root] = true;
    order.push_back(root);
    // Stops as soon as every node is placed (one hub scan on a clique).
    for (std::size_t head = order.size() - 1;
         head < order.size() && order.size() < n; ++head) {
      for (const node_id v : g.neighbors(order[head])) {
        if (!visited[v]) {
          visited[v] = true;
          order.push_back(v);
        }
      }
    }
  }
  return order;
}

/// Bit-parallel multi-source BFS (Then et al., "The More the Merrier:
/// Efficient Multi-Source Graph Traversal", VLDB 2015). Sources run in
/// batches of up to 64 consecutive nodes of bfs_order(), so a batch's
/// lanes start close together: lane b of a node's word stands for
/// source sources[b], and the seen/frontier/next words are node-major.
/// Each level expands top-down over the nodes whose frontier word is
/// non-zero, so one adjacency walk serves every lane that shares the
/// node. on_reach(level, sources, v, lanes) fires for each set of lanes
/// that first reaches v at `level`. Returns the largest level over all
/// batches (the diameter), or `unreachable` when some lane never fills;
/// every batch still runs to completion for on_reach.
template <typename OnReach>
std::uint32_t multi_source_bfs(const graph& g, OnReach&& on_reach) {
  const std::size_t n = g.node_count();
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::vector<node_id> active, upcoming;
  const std::vector<node_id> order = bfs_order(g);
  std::uint32_t deepest = 0;
  for (std::size_t start = 0; start < n; start += 64) {
    const node_id* sources = order.data() + start;
    const std::size_t lanes = std::min<std::size_t>(64, n - start);
    const std::uint64_t full = lanes == 64 ? ~std::uint64_t{0}
                                           : (std::uint64_t{1} << lanes) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(frontier.begin(), frontier.end(), 0);
    std::fill(next.begin(), next.end(), 0);
    active.clear();
    for (std::size_t b = 0; b < lanes; ++b) {
      seen[sources[b]] = frontier[sources[b]] = std::uint64_t{1} << b;
      active.push_back(sources[b]);
    }
    // Nodes some lane has not reached yet; the batch ends when none are.
    std::size_t unfilled = lanes == 1 ? n - 1 : n;
    std::uint32_t level = 0;
    while (unfilled > 0 && !active.empty()) {
      ++level;
      upcoming.clear();
      for (const node_id u : active) {
        const std::uint64_t f = frontier[u];
        frontier[u] = 0;
        for (const node_id v : g.neighbors(u)) {
          const std::uint64_t add = f & ~seen[v];
          if (add == 0) continue;
          if (next[v] == 0) upcoming.push_back(v);
          next[v] |= add;
          seen[v] |= add;
          if (seen[v] == full) --unfilled;
          on_reach(level, sources, v, add);
        }
      }
      frontier.swap(next);
      active.swap(upcoming);
    }
    deepest = unfilled > 0 ? unreachable : std::max(deepest, level);
  }
  return deepest;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const graph& g, node_id source) {
  std::vector<std::uint32_t> dist(g.node_count(), unreachable);
  if (source >= g.node_count()) return dist;
  std::queue<node_id> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const node_id u = frontier.front();
    frontier.pop();
    for (node_id v : g.neighbors(u)) {
      if (dist[v] == unreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

bool is_connected(const graph& g) {
  if (g.node_count() <= 1) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == unreachable; });
}

std::uint32_t eccentricity(const graph& g, node_id source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == unreachable) return unreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter_exact(const graph& g) {
  return multi_source_bfs(
      g, [](std::uint32_t, const node_id*, node_id, std::uint64_t) {});
}

std::uint32_t diameter_double_sweep(const graph& g, int sweeps) {
  if (g.node_count() == 0) return 0;
  std::uint32_t best = 0;
  node_id start = 0;
  for (int s = 0; s < sweeps; ++s) {
    const auto dist = bfs_distances(g, start);
    node_id farthest = start;
    std::uint32_t ecc = 0;
    for (node_id v = 0; v < g.node_count(); ++v) {
      if (dist[v] != unreachable && dist[v] > ecc) {
        ecc = dist[v];
        farthest = v;
      }
    }
    best = std::max(best, ecc);
    if (farthest == start) break;
    start = farthest;
  }
  return best;
}

std::vector<std::vector<std::uint32_t>> distance_matrix(const graph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<std::uint32_t>> matrix(
      n, std::vector<std::uint32_t>(n, unreachable));
  for (node_id u = 0; u < n; ++u) matrix[u][u] = 0;
  multi_source_bfs(g, [&matrix](std::uint32_t level, const node_id* sources,
                                node_id v, std::uint64_t lanes) {
    for (; lanes != 0; lanes &= lanes - 1) {
      matrix[sources[std::countr_zero(lanes)]][v] = level;
    }
  });
  return matrix;
}

std::optional<std::vector<node_id>> shortest_path(const graph& g, node_id u,
                                                  node_id v) {
  if (u >= g.node_count() || v >= g.node_count()) return std::nullopt;
  if (u == v) return std::vector<node_id>{u};

  // BFS from v so that walking parents from u yields the path in order.
  const auto dist = bfs_distances(g, v);
  if (dist[u] == unreachable) return std::nullopt;

  std::vector<node_id> path;
  path.reserve(dist[u] + 1);
  node_id current = u;
  path.push_back(current);
  while (current != v) {
    for (node_id next : g.neighbors(current)) {
      if (dist[next] + 1 == dist[current]) {
        current = next;
        break;
      }
    }
    path.push_back(current);
  }
  return path;
}

std::vector<node_id> exact_distance_set(const graph& g, node_id u,
                                        std::uint32_t d) {
  const auto dist = bfs_distances(g, u);
  std::vector<node_id> result;
  for (node_id v = 0; v < g.node_count(); ++v) {
    if (dist[v] == d) result.push_back(v);
  }
  return result;
}

}  // namespace beepkit::graph
