// RSMT builder invariants and quality properties, plus a differential check
// of the builder against a straightforward reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "rsmt/rsmt_builder.h"

namespace dtp::rsmt {
namespace {

std::vector<Vec2> random_pins(Rng& rng, int n, double span = 100.0) {
  std::vector<Vec2> pins(static_cast<size_t>(n));
  for (auto& p : pins) p = {rng.uniform(0.0, span), rng.uniform(0.0, span)};
  return pins;
}

// ---- reference builder ----
// The textbook form of the same algorithm: every 1-Steiner candidate is
// scored by a fresh O(m^2) Prim over P ∪ {s}.  Same scan order, same strict
// gain test, same prune pass and rooting, so it must emit identical trees.
namespace ref {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<int> prim_parents(const std::vector<Vec2>& pts, int root) {
  const size_t m = pts.size();
  std::vector<int> parent(m, -1);
  std::vector<double> dist(m, kInf);
  std::vector<char> in_tree(m, 0);
  dist[static_cast<size_t>(root)] = 0.0;
  for (size_t iter = 0; iter < m; ++iter) {
    size_t best = m;
    double best_d = kInf;
    for (size_t v = 0; v < m; ++v)
      if (!in_tree[v] && dist[v] < best_d) {
        best = v;
        best_d = dist[v];
      }
    in_tree[best] = 1;
    for (size_t v = 0; v < m; ++v) {
      if (in_tree[v]) continue;
      const double d = manhattan(pts[best], pts[v]);
      if (d < dist[v]) {
        dist[v] = d;
        parent[v] = static_cast<int>(best);
      }
    }
  }
  return parent;
}

double mst_length(const std::vector<Vec2>& pts) {
  if (pts.size() < 2) return 0.0;
  const auto parent = prim_parents(pts, 0);
  double total = 0.0;
  for (size_t v = 1; v < pts.size(); ++v)
    total += manhattan(pts[v], pts[static_cast<size_t>(parent[v])]);
  return total;
}

SteinerTree finalize(const std::vector<Vec2>& pts, int num_pins, int driver,
                     const std::vector<std::pair<int, int>>& src) {
  const size_t m = pts.size();
  const auto up = prim_parents(pts, driver);
  SteinerTree tree;
  tree.num_pins = num_pins;
  tree.root = driver;
  tree.nodes.resize(m);
  for (size_t v = 0; v < m; ++v) {
    tree.nodes[v].pos = pts[v];
    tree.nodes[v].parent = up[v];
    const bool pin = v < static_cast<size_t>(num_pins);
    const size_t k = v - static_cast<size_t>(num_pins);
    tree.nodes[v].x_src = pin ? static_cast<int>(v) : src[k].first;
    tree.nodes[v].y_src = pin ? static_cast<int>(v) : src[k].second;
  }
  std::vector<std::vector<int>> children(m);
  for (size_t v = 0; v < m; ++v)
    if (up[v] >= 0) children[static_cast<size_t>(up[v])].push_back(static_cast<int>(v));
  tree.topo_order.push_back(driver);
  for (size_t head = 0; head < tree.topo_order.size(); ++head)
    for (int c : children[static_cast<size_t>(tree.topo_order[head])])
      tree.topo_order.push_back(c);
  return tree;
}

SteinerTree build_rsmt(const std::vector<Vec2>& pins, int driver,
                       const RsmtOptions& opts) {
  const int n = static_cast<int>(pins.size());
  if (n == 3) {
    auto median_idx = [&](auto coord) {
      int idx[3] = {0, 1, 2};
      std::sort(idx, idx + 3, [&](int a, int b) {
        return coord(pins[static_cast<size_t>(a)]) <
               coord(pins[static_cast<size_t>(b)]);
      });
      return idx[1];
    };
    const int mx = median_idx([](const Vec2& p) { return p.x; });
    const int my = median_idx([](const Vec2& p) { return p.y; });
    const Vec2 s{pins[static_cast<size_t>(mx)].x, pins[static_cast<size_t>(my)].y};
    std::vector<Vec2> pts = pins;
    std::vector<std::pair<int, int>> src;
    if (std::find(pins.begin(), pins.end(), s) == pins.end()) {
      pts.push_back(s);
      src.emplace_back(mx, my);
    }
    return finalize(pts, 3, driver, src);
  }
  if (n <= 2 || !opts.enable_1steiner || n > opts.kr_max_pins)
    return finalize(pins, n, driver, {});

  std::vector<Vec2> pts = pins;
  std::vector<std::pair<int, int>> src;
  double current = mst_length(pts);
  for (int round = 0; round < opts.kr_max_rounds; ++round) {
    double best_len = current;
    int best_i = -1, best_j = -1;
    std::vector<Vec2> trial = pts;
    trial.emplace_back();
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        trial.back() = {pins[static_cast<size_t>(i)].x,
                        pins[static_cast<size_t>(j)].y};
        const double len = mst_length(trial);
        if (len < best_len - opts.kr_min_gain) {
          best_len = len;
          best_i = i;
          best_j = j;
        }
      }
    if (best_i < 0) break;
    pts.push_back({pins[static_cast<size_t>(best_i)].x,
                   pins[static_cast<size_t>(best_j)].y});
    src.emplace_back(best_i, best_j);
    current = best_len;
  }
  while (!src.empty()) {
    const auto parent = prim_parents(pts, 0);
    std::vector<int> degree(pts.size(), 0);
    for (size_t v = 1; v < pts.size(); ++v) {
      ++degree[v];
      ++degree[static_cast<size_t>(parent[v])];
    }
    int drop = -1;
    for (size_t v = static_cast<size_t>(n); v < pts.size(); ++v)
      if (degree[v] <= 2) {
        drop = static_cast<int>(v);
        break;
      }
    if (drop < 0) break;
    pts.erase(pts.begin() + drop);
    src.erase(src.begin() + (drop - n));
  }
  return finalize(pts, n, driver, src);
}

}  // namespace ref

// Trees are identical: positions bitwise, parents, provenance, topo order.
void expect_same_tree(const SteinerTree& got, const SteinerTree& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_pins, want.num_pins) << what;
  ASSERT_EQ(got.root, want.root) << what;
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << what;
  for (size_t v = 0; v < got.nodes.size(); ++v) {
    EXPECT_EQ(got.nodes[v].pos, want.nodes[v].pos) << what << " node " << v;
    EXPECT_EQ(got.nodes[v].parent, want.nodes[v].parent) << what << " node " << v;
    EXPECT_EQ(got.nodes[v].x_src, want.nodes[v].x_src) << what << " node " << v;
    EXPECT_EQ(got.nodes[v].y_src, want.nodes[v].y_src) << what << " node " << v;
  }
  EXPECT_EQ(got.topo_order, want.topo_order) << what;
}

TEST(Rsmt, TwoPinNetIsSingleEdge) {
  const std::vector<Vec2> pins{{0.0, 0.0}, {3.0, 4.0}};
  const SteinerTree t = build_rsmt(pins, 0);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_steiner(), 0u);
  EXPECT_EQ(check_tree(t), "");
  EXPECT_NEAR(t.length(), 7.0, 1e-12);
}

TEST(Rsmt, ThreePinMedianSteiner) {
  const std::vector<Vec2> pins{{0.0, 0.0}, {10.0, 2.0}, {4.0, 8.0}};
  const SteinerTree t = build_rsmt(pins, 0);
  EXPECT_EQ(check_tree(t), "");
  ASSERT_EQ(t.num_steiner(), 1u);
  const auto& s = t.nodes[3];
  EXPECT_EQ(s.pos.x, 4.0);  // median x (pin 2)
  EXPECT_EQ(s.pos.y, 2.0);  // median y (pin 1)
  EXPECT_EQ(s.x_src, 2);
  EXPECT_EQ(s.y_src, 1);
  // Exact 3-pin RSMT length: half-perimeter of the bounding box.
  EXPECT_NEAR(t.length(), 10.0 + 8.0, 1e-12);
}

TEST(Rsmt, ThreePinDegenerateMedianOnPin) {
  // Median point coincides with the middle pin: no Steiner node.
  const std::vector<Vec2> pins{{0.0, 0.0}, {5.0, 5.0}, {9.0, 9.0}};
  const SteinerTree t = build_rsmt(pins, 1);
  EXPECT_EQ(check_tree(t), "");
  EXPECT_EQ(t.num_steiner(), 0u);
  EXPECT_NEAR(t.length(), 18.0, 1e-12);
}

TEST(Rsmt, CrossTopologyGainsOverMst) {
  // Four pins at the corners of a plus sign: the RSMT uses a center Steiner
  // point and beats the MST.
  const std::vector<Vec2> pins{{5.0, 0.0}, {5.0, 10.0}, {0.0, 5.0}, {10.0, 5.0}};
  const SteinerTree rsmt = build_rsmt(pins, 0);
  const SteinerTree rmst = build_rmst(pins, 0);
  EXPECT_EQ(check_tree(rsmt), "");
  EXPECT_NEAR(rsmt.length(), 20.0, 1e-9);
  EXPECT_GT(rmst.length(), rsmt.length());
}

TEST(Rsmt, RootIsDriver) {
  Rng rng(5);
  const auto pins = random_pins(rng, 7);
  for (int driver = 0; driver < 7; ++driver) {
    const SteinerTree t = build_rsmt(pins, driver);
    EXPECT_EQ(t.root, driver);
    EXPECT_EQ(t.nodes[static_cast<size_t>(driver)].parent, -1);
    EXPECT_EQ(check_tree(t), "");
  }
}

TEST(Rsmt, UpdatePositionsDragsSteinerPoints) {
  Rng rng(17);
  // Distinct x and y medians so the 3-pin tree is guaranteed a Steiner node.
  std::vector<Vec2> pins{{0.0, 0.0}, {10.0, 3.0}, {4.0, 9.0}};
  SteinerTree t = build_rsmt(pins, 0);
  ASSERT_EQ(t.num_steiner(), 1u);
  // Move every pin and drag.
  for (auto& p : pins) {
    p.x += rng.uniform(-1.0, 1.0);
    p.y += rng.uniform(-1.0, 1.0);
  }
  update_positions(t, pins);
  EXPECT_EQ(check_tree(t), "");
  const auto& s = t.nodes[3];
  EXPECT_EQ(s.pos.x, pins[static_cast<size_t>(s.x_src)].x);
  EXPECT_EQ(s.pos.y, pins[static_cast<size_t>(s.y_src)].y);
}

TEST(Rsmt, CoincidentPinsAreFine) {
  const std::vector<Vec2> pins{{1.0, 1.0}, {1.0, 1.0}, {4.0, 1.0}, {1.0, 1.0}};
  const SteinerTree t = build_rsmt(pins, 0);
  EXPECT_EQ(check_tree(t), "");
  EXPECT_NEAR(t.length(), 3.0, 1e-12);
}

// Property sweep over random nets: structural validity, Steiner never worse
// than MST, MST never better than half the Steiner bound (sanity), and
// length within the Hwang bound factor 1.5 of the MST lower bound 2/3*MST.
class RsmtRandom : public ::testing::TestWithParam<int> {};

TEST_P(RsmtRandom, InvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam() * 7919 + 1));
  const int n = static_cast<int>(rng.uniform_int(2, 14));
  const auto pins = random_pins(rng, n);
  const int driver = static_cast<int>(rng.uniform_int(0, n - 1));

  const SteinerTree rsmt = build_rsmt(pins, driver);
  const SteinerTree rmst = build_rmst(pins, driver);
  EXPECT_EQ(check_tree(rsmt), "");
  EXPECT_EQ(check_tree(rmst), "");
  EXPECT_LE(rsmt.length(), rmst.length() + 1e-9);
  // Steiner trees cannot shorten below 2/3 of the MST (Hwang's theorem).
  EXPECT_GE(rsmt.length(), rmst.length() * 2.0 / 3.0 - 1e-9);

  // HPWL is a lower bound on any connecting tree length.
  double xl = pins[0].x, xh = pins[0].x, yl = pins[0].y, yh = pins[0].y;
  for (const auto& p : pins) {
    xl = std::min(xl, p.x);
    xh = std::max(xh, p.x);
    yl = std::min(yl, p.y);
    yh = std::max(yh, p.y);
  }
  EXPECT_GE(rsmt.length(), (xh - xl) + (yh - yl) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, RsmtRandom, ::testing::Range(0, 40));

TEST(Rsmt, DisableRefinementGivesRmst) {
  Rng rng(23);
  const auto pins = random_pins(rng, 9);
  RsmtOptions opts;
  opts.enable_1steiner = false;
  const SteinerTree t = build_rsmt(pins, 0, opts);
  EXPECT_EQ(t.num_steiner(), 0u);
  EXPECT_NEAR(t.length(), build_rmst(pins, 0).length(), 1e-12);
}

TEST(Rsmt, LargeNetFallsBackToRmst) {
  Rng rng(29);
  const auto pins = random_pins(rng, 40);
  RsmtOptions opts;
  opts.kr_max_pins = 16;
  const SteinerTree t = build_rsmt(pins, 0, opts);
  EXPECT_EQ(t.num_steiner(), 0u);
  EXPECT_EQ(check_tree(t), "");
}

TEST(RsmtDifferential, RandomNetsMatchReference) {
  Rng rng(4242);
  size_t refined = 0;
  for (int t = 0; t < 2000; ++t) {
    const int n = static_cast<int>(rng.uniform_int(4, 16));
    // Half the nets on a coarse integer grid, where ties between candidates
    // and between MST edges are common.
    std::vector<Vec2> pins = random_pins(rng, n);
    if (t % 2 == 1)
      for (Vec2& p : pins) p = {std::floor(p.x / 10.0), std::floor(p.y / 10.0)};
    const int driver = static_cast<int>(rng.uniform_int(0, n - 1));
    const SteinerTree got = build_rsmt(pins, driver);
    refined += got.num_steiner() > 0;
    expect_same_tree(got, ref::build_rsmt(pins, driver, RsmtOptions{}),
                     "net " + std::to_string(t));
    if (HasFailure()) return;
  }
  EXPECT_GT(refined, 1000u);  // the comparison really exercised 1-Steiner
}

TEST(RsmtDifferential, DegenerateNetsMatchReference) {
  std::vector<std::vector<Vec2>> nets = {
      {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}},                  // all equal
      {{0, 0}, {0, 0}, {5, 5}, {5, 5}, {0, 5}, {5, 0}},          // coincident
      {{2, 0}, {2, 3}, {2, 7}, {2, 1}, {2, 9}},                  // shared x
      {{0, 4}, {3, 4}, {8, 4}, {1, 4}},                          // shared y
      {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}},          // diagonal
      {{0, 0}, {4, 0}, {8, 0}, {4, 3}, {4, 6}, {0, 6}, {8, 6}},  // grid
      {{5, 0}, {5, 10}, {0, 5}, {10, 5}, {5, 5}},                // cross + hub
      {{0, 0}, {10, 0}, {0, 10}, {10, 10}, {0, 0}, {10, 10}},    // square
  };
  Rng rng(77);
  for (int t = 0; t < 200; ++t) {  // small-grid nets: heavy coordinate sharing
    const int n = static_cast<int>(rng.uniform_int(4, 16));
    std::vector<Vec2> pins(static_cast<size_t>(n));
    for (Vec2& p : pins)
      p = {static_cast<double>(rng.uniform_int(0, 3)),
           static_cast<double>(rng.uniform_int(0, 3))};
    nets.push_back(pins);
  }
  for (int rounds : {0, 1, 12}) {
    RsmtOptions opts;
    opts.kr_max_rounds = rounds;
    for (size_t k = 0; k < nets.size(); ++k) {
      const int n = static_cast<int>(nets[k].size());
      for (int driver : {0, n - 1}) {
        const SteinerTree got = build_rsmt(nets[k], driver, opts);
        EXPECT_EQ(check_tree(got), "");
        expect_same_tree(got, ref::build_rsmt(nets[k], driver, opts),
                         "net " + std::to_string(k) + " rounds " +
                             std::to_string(rounds));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(RsmtDifferential, InsertionLengthMatchesPrim) {
  Rng rng(99);
  for (int t = 0; t < 500; ++t) {
    const int m = static_cast<int>(rng.uniform_int(1, 28));
    std::vector<Vec2> pts = random_pins(rng, m);
    const Vec2 s = t % 3 == 0 ? pts[static_cast<size_t>(rng.uniform_int(0, m - 1))]
                              : Vec2{rng.uniform(-20.0, 120.0),
                                     rng.uniform(-20.0, 120.0)};
    const double got = insertion_mst_length(pts, s);
    std::vector<Vec2> with = pts;
    with.push_back(s);
    const double want = ref::mst_length(with);
    EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want)) << "trial " << t;
  }
}

}  // namespace
}  // namespace dtp::rsmt
