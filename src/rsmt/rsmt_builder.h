// Rectilinear Steiner tree construction (FLUTE substitute; DESIGN.md §1).
//
//   * degree 2: a single edge;
//   * degree 3: the exact RSMT — one Steiner point at the coordinate-wise
//     median of the three pins;
//   * degree 4..kr_max_pins: iterated 1-Steiner refinement (Kahng–Robins)
//     over the pins' Hanan grid.  Each round builds the rectilinear MST of the
//     current point set once (Prim), scores every candidate (x of pin i, y of
//     pin j) by inserting it into that MST in O(m) (Chin & Houck), and keeps
//     the best one, until no candidate gains kr_min_gain or kr_max_rounds is
//     reached.  Steiner points left with MST degree <= 2 are then pruned;
//   * larger nets, or enable_1steiner off: plain rectilinear MST (Prim).
//
// The core, build_rsmt_into, works in caller-owned memory — an RsmtScratch
// sized once for the largest net and an output slice such as a SteinerForest
// arena slot — so building a tree performs no heap allocation.  The owning
// build_rsmt / build_rmst wrappers serve tests, benches and NetTiming.
//
// All builders produce trees satisfying the coordinate-provenance contract of
// SteinerTree, rooted at the net driver.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rsmt/steiner_tree.h"

namespace dtp::rsmt {

struct RsmtOptions {
  bool enable_1steiner = true;  // turn off to get plain RMST (ablation)
  int kr_max_pins = 16;         // 1-Steiner refinement only below this degree
  int kr_max_rounds = 12;       // safety cap on insertion rounds
  double kr_min_gain = 1e-9;    // stop when the best candidate gains less
};

// Upper bound on the node count of a tree the builder makes for a net of
// `num_pins` pins: degree <= 2 adds no Steiner point, the degree-3 median at
// most one, 1-Steiner refinement at most kr_max_rounds.
int max_tree_nodes(size_t num_pins, const RsmtOptions& opts);

// Construction counts, accumulated per scratch and published to the
// rsmt.trees_built / rsmt.kr_refined_trees / rsmt.steiner_points counters
// once per batch of trees.
struct RsmtCounts {
  uint64_t trees = 0;
  uint64_t kr_refined = 0;
  uint64_t steiner_points = 0;

  RsmtCounts& operator+=(const RsmtCounts& o) {
    trees += o.trees;
    kr_refined += o.kr_refined;
    steiner_points += o.steiner_points;
    return *this;
  }
};
void publish_counts(const RsmtCounts& counts);

// Working memory of one builder thread for nets of up to `max_pins` pins.
// The caller stages a net's pins in pts[0, num_pins) before each build; the
// other buffers are builder-internal.  Cache-line aligned, so the counts one
// thread bumps per tree never share a line with another thread's scratch.
struct alignas(64) RsmtScratch {
  RsmtScratch() = default;
  RsmtScratch(size_t pin_capacity, const RsmtOptions& opts);

  size_t max_pins = 0;
  std::vector<Vec2> pts;                 // pins, then Steiner points
  std::vector<std::pair<int, int>> src;  // (x, y) source pins of Steiner points
  std::vector<int> parent, order, degree;  // MST parents, join order, degrees
  std::vector<double> dist, edge, mm;  // Prim keys, edge to parent, links to p
  std::vector<char> in_tree;
  RsmtCounts counts;  // trees built with this scratch since the last publish
};

// Builds a tree over scratch.pts[0, num_pins) rooted at pin `driver`.  Writes
// its nodes and parent-before-child order into nodes[0, m) / topo[0, m) and
// returns m; both spans need max_tree_nodes(num_pins, opts) entries.
int build_rsmt_into(RsmtScratch& scratch, int num_pins, int driver,
                    const RsmtOptions& opts, std::span<SteinerNode> nodes,
                    std::span<int> topo);

// Builds a tree over `pins` rooted at pins[driver].
SteinerTree build_rsmt(std::span<const Vec2> pins, int driver,
                       const RsmtOptions& opts = {});

// Plain rectilinear MST over the pins (no Steiner points), rooted at driver.
// Exposed for the RSMT-quality ablation bench.
SteinerTree build_rmst(std::span<const Vec2> pins, int driver);

// Length of the rectilinear MST over pts ∪ {p}, computed the way a 1-Steiner
// round scores candidate p: Prim MST over pts, then O(m) insertion of p.
double insertion_mst_length(std::span<const Vec2> pts, Vec2 p);

}  // namespace dtp::rsmt
