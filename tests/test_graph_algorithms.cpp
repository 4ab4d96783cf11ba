#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>

#include "analysis/experiment.hpp"
#include "graph/generators.hpp"

namespace beepkit::graph {
namespace {

/// The word-boundary sizes of the 64-lane multi-source BFS.
constexpr std::size_t kLaneSizes[] = {1, 2, 3, 63, 64, 65, 127, 128, 129};

/// Every generator in generators.hpp at (about) n nodes, where its
/// preconditions allow that size.
std::vector<graph> generator_family(std::size_t n) {
  std::vector<graph> out;
  out.push_back(make_path(n));
  out.push_back(make_complete(n));
  out.push_back(make_complete_binary_tree(n));
  out.push_back(make_grid(1, n));
  out.push_back(make_grid(n, 1));
  out.push_back(make_caterpillar(n, 0));
  if (n >= 2) out.push_back(make_star(n));
  if (n >= 3) out.push_back(make_cycle(n));
  if (n >= 4) out.push_back(make_wheel(n));
  if (n >= 4) out.push_back(make_lollipop(2 + n % 5, n - 2 - n % 5));
  if (n >= 6) out.push_back(make_barbell(3, n - 6));
  if (n % 3 == 0 && n >= 3) out.push_back(make_caterpillar(n / 3, 2));
  for (std::size_t r = 2; r * r <= n; ++r) {
    if (n % r != 0) continue;
    out.push_back(make_grid(r, n / r));
    if (r >= 3) out.push_back(make_torus(r, n / r));
    break;
  }
  if (n >= 2 && std::has_single_bit(n)) {
    out.push_back(make_hypercube(static_cast<std::size_t>(std::countr_zero(n))));
  }
  support::rng rng(n);
  out.push_back(make_random_tree(n, rng));
  out.push_back(make_erdos_renyi_connected(
      n, std::min(1.0, 3.0 / static_cast<double>(n)), rng));
  out.push_back(make_random_geometric(n, 0.2, rng));
  if (n >= 8 && n % 2 == 0) out.push_back(make_random_regular(n, 3, rng));
  return out;
}

/// The multi-source results against bfs_distances from every source.
void expect_matches_reference(const graph& g) {
  SCOPED_TRACE(g.name());
  std::vector<std::vector<std::uint32_t>> reference;
  std::uint32_t diameter = 0;
  for (node_id u = 0; u < g.node_count(); ++u) {
    reference.push_back(bfs_distances(g, u));
    for (const std::uint32_t d : reference.back()) {
      diameter = std::max(diameter, d);  // unreachable is the maximum
    }
  }
  EXPECT_EQ(diameter_exact(g), diameter);
  EXPECT_EQ(distance_matrix(g), reference);
}

TEST(AlgorithmsTest, BfsDistancesOnPath) {
  const auto g = make_path(6);
  const auto dist = bfs_distances(g, 2);
  const std::vector<std::uint32_t> expected = {2, 1, 0, 1, 2, 3};
  EXPECT_EQ(dist, expected);
}

TEST(AlgorithmsTest, BfsUnreachable) {
  const graph g(4, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1U);
  EXPECT_EQ(dist[2], unreachable);
  EXPECT_EQ(dist[3], unreachable);
}

TEST(AlgorithmsTest, ConnectivityDetection) {
  EXPECT_TRUE(is_connected(make_cycle(5)));
  EXPECT_TRUE(is_connected(graph(1, {})));
  EXPECT_TRUE(is_connected(graph()));
  EXPECT_FALSE(is_connected(graph(3, {{0, 1}})));
}

TEST(AlgorithmsTest, EccentricityOnStar) {
  const auto g = make_star(7);
  EXPECT_EQ(eccentricity(g, 0), 1U);
  EXPECT_EQ(eccentricity(g, 3), 2U);
}

TEST(AlgorithmsTest, EccentricityDisconnected) {
  const graph g(3, {{0, 1}});
  EXPECT_EQ(eccentricity(g, 0), unreachable);
}

TEST(AlgorithmsTest, DiameterExactKnownGraphs) {
  EXPECT_EQ(diameter_exact(make_path(17)), 16U);
  EXPECT_EQ(diameter_exact(make_cycle(12)), 6U);
  EXPECT_EQ(diameter_exact(make_complete(9)), 1U);
  EXPECT_EQ(diameter_exact(make_grid(3, 5)), 6U);
  EXPECT_EQ(diameter_exact(make_hypercube(6)), 6U);
}

TEST(AlgorithmsTest, DoubleSweepTightOnTreesAndNeverOver) {
  support::rng rng(44);
  for (int i = 0; i < 10; ++i) {
    const auto tree = make_random_tree(60, rng);
    EXPECT_EQ(diameter_double_sweep(tree), diameter_exact(tree));
  }
  for (int i = 0; i < 5; ++i) {
    const auto g = make_erdos_renyi_connected(40, 0.1, rng);
    const auto lower = diameter_double_sweep(g);
    const auto exact = diameter_exact(g);
    EXPECT_LE(lower, exact);
    EXPECT_GE(lower * 2, exact);  // double sweep is a 2-approximation
  }
}

TEST(AlgorithmsTest, DistanceMatrixSymmetric) {
  const auto g = make_grid(3, 4);
  const auto matrix = distance_matrix(g);
  for (node_id u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(matrix[u][u], 0U);
    for (node_id v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(matrix[u][v], matrix[v][u]);
    }
  }
}

TEST(AlgorithmsTest, ShortestPathValid) {
  const auto g = make_grid(4, 4);
  const auto matrix = distance_matrix(g);
  for (node_id u = 0; u < 16; u += 3) {
    for (node_id v = 0; v < 16; v += 5) {
      const auto path = shortest_path(g, u, v);
      ASSERT_TRUE(path.has_value());
      EXPECT_EQ(path->front(), u);
      EXPECT_EQ(path->back(), v);
      EXPECT_EQ(path->size(), matrix[u][v] + 1);
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        EXPECT_TRUE(g.has_edge((*path)[i], (*path)[i + 1]));
      }
    }
  }
}

TEST(AlgorithmsTest, ShortestPathTrivialAndMissing) {
  const graph g(4, {{0, 1}});
  const auto same = shortest_path(g, 1, 1);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->size(), 1U);
  EXPECT_FALSE(shortest_path(g, 0, 3).has_value());
  EXPECT_FALSE(shortest_path(g, 0, 9).has_value());
}

TEST(AlgorithmsTest, ExactDistanceSetMatchesDefinition) {
  const auto g = make_cycle(8);
  const auto at2 = exact_distance_set(g, 0, 2);
  EXPECT_EQ(at2, (std::vector<node_id>{2, 6}));
  const auto at4 = exact_distance_set(g, 0, 4);
  EXPECT_EQ(at4, (std::vector<node_id>{4}));
  EXPECT_TRUE(exact_distance_set(g, 0, 5).empty());
}

TEST(AlgorithmsTest, MsBfsGenerators) {
  for (const std::size_t n : kLaneSizes) {
    for (const graph& g : generator_family(n)) expect_matches_reference(g);
  }
}

TEST(AlgorithmsTest, MsBfsRandom) {
  support::rng rng(99);
  for (const std::size_t n : {std::size_t{200}, std::size_t{257}}) {
    for (int i = 0; i < 3; ++i) {
      expect_matches_reference(make_random_tree(n, rng));
      expect_matches_reference(make_erdos_renyi_connected(
          n, (2.0 + i) / static_cast<double>(n), rng));
    }
  }
}

TEST(AlgorithmsTest, MsBfsOnDisconnectedGraphs) {
  // Two components straddling the first lane word, an isolated node in
  // the second, and a graph with no edges.
  std::vector<edge> edges;
  for (node_id u = 0; u + 1 < 70; ++u) edges.push_back({u, u + 1});
  for (node_id u = 70; u + 1 < 130; ++u) edges.push_back({u, u + 1});
  const graph split(131, std::move(edges));
  EXPECT_EQ(diameter_exact(split), unreachable);
  expect_matches_reference(split);
  EXPECT_EQ(diameter_exact(graph(2, {})), unreachable);
  expect_matches_reference(graph(65, {}));
  EXPECT_EQ(diameter_exact(graph()), 0U);
  EXPECT_TRUE(distance_matrix(graph()).empty());
}

TEST(AlgorithmsTest, CsrSortFree) {
  support::rng rng(5);
  const graph source = make_erdos_renyi_connected(150, 0.05, rng);
  const std::vector<edge> sorted = source.edges();
  // Sort-based reference rows: every arc, each row sorted on its own.
  std::vector<std::vector<node_id>> rows(source.node_count());
  for (const edge& e : sorted) {
    rows[e.u].push_back(e.v);
    rows[e.v].push_back(e.u);
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());

  std::vector<edge> shuffled = sorted;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_u64() % i]);
  }
  std::vector<edge> reversed(sorted.rbegin(), sorted.rend());
  for (edge& e : reversed) std::swap(e.u, e.v);
  std::vector<edge> duplicated = sorted;
  duplicated.insert(duplicated.end(), sorted.begin(), sorted.end());
  std::sort(duplicated.begin(), duplicated.end(),
            [](const edge& a, const edge& b) {
              return std::pair(a.u, a.v) < std::pair(b.u, b.v);
            });
  std::vector<edge> mixed = shuffled;
  mixed.insert(mixed.end(), reversed.begin(), reversed.end());
  for (const auto& list : {sorted, shuffled, reversed, duplicated, mixed}) {
    const graph g(source.node_count(), list);
    ASSERT_EQ(g.edge_count(), sorted.size());
    for (node_id u = 0; u < g.node_count(); ++u) {
      const auto adj = g.neighbors(u);
      EXPECT_EQ(std::vector<node_id>(adj.begin(), adj.end()), rows[u]);
    }
  }
}

TEST(AlgorithmsTest, TaggedD) {
  std::vector<graph> tagged;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{65}}) {
    tagged.push_back(make_path(n));
    tagged.push_back(make_grid(1, n));
    tagged.push_back(make_grid(n, 1));
  }
  for (const std::size_t n : {std::size_t{3}, std::size_t{4}, std::size_t{65}}) {
    tagged.push_back(make_cycle(n));
  }
  tagged.push_back(make_grid(2, 2));
  tagged.push_back(make_grid(8, 13));
  tagged.push_back(make_torus(3, 3));
  tagged.push_back(make_torus(3, 4));
  tagged.push_back(make_torus(6, 9));
  for (graph& g : tagged) {
    SCOPED_TRACE(g.name());
    ASSERT_TRUE(g.topology_tag().has_value());
    const std::uint32_t exact = diameter_exact(g);
    EXPECT_EQ(analysis::make_instance(g).diameter, exact);
    EXPECT_EQ(analysis::make_instance(std::move(g), 0).diameter, exact);
  }
}

}  // namespace
}  // namespace beepkit::graph
