#include "rsmt/rsmt_builder.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"
#include "obs/metrics.h"

namespace dtp::rsmt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Prim's algorithm over the complete rectilinear graph on s.pts[0, m), O(m^2).
// Leaves the parent array of an MST rooted at `root` in s.parent
// (parent[root] == -1), each vertex's edge length to its parent in s.edge,
// and the order vertices joined the tree (parents before children) in
// s.order.
void prim(RsmtScratch& s, int m, int root) {
  const size_t n = static_cast<size_t>(m);
  for (size_t v = 0; v < n; ++v) {
    s.parent[v] = -1;
    s.dist[v] = kInf;
    s.in_tree[v] = 0;
  }
  s.dist[static_cast<size_t>(root)] = 0.0;
  for (size_t iter = 0; iter < n; ++iter) {
    size_t best = n;
    double best_d = kInf;
    for (size_t v = 0; v < n; ++v)
      if (!s.in_tree[v] && s.dist[v] < best_d) {
        best = v;
        best_d = s.dist[v];
      }
    DTP_ASSERT(best < n);
    s.in_tree[best] = 1;
    s.edge[best] = best_d;
    s.order[iter] = static_cast<int>(best);
    for (size_t v = 0; v < n; ++v) {
      if (s.in_tree[v]) continue;
      const double d = manhattan(s.pts[best], s.pts[v]);
      if (d < s.dist[v]) {
        s.dist[v] = d;
        s.parent[v] = static_cast<int>(best);
      }
    }
  }
}

// Length of the MST left by prim(s, m, 0), summed in vertex order.
double mst_length(const RsmtScratch& s, int m) {
  double total = 0.0;
  for (size_t v = 1; v < static_cast<size_t>(m); ++v) total += s.edge[v];
  return total;
}

// Length of the MST over pts[0, m) ∪ {p}, given the MST of pts[0, m) left by
// prim() (Chin & Houck vertex insertion, O(m)).  The new MST uses only tree
// edges and edges to p.  Walking children before parents, each vertex v still
// has two links towards the rest: its tree edge and mm[v], the lightest link
// from v's contracted subtree to p.  The lighter one is in the MST; the
// heavier one survives as a candidate link of the parent.  Stops early once
// the partial length reaches `limit` (weights are non-negative, so the final
// length would too) and returns the partial length then.
double insertion_length(RsmtScratch& s, int m, Vec2 p, double limit) {
  const size_t n = static_cast<size_t>(m);
  for (size_t v = 0; v < n; ++v) s.mm[v] = manhattan(p, s.pts[v]);
  double len = 0.0;
  for (size_t k = n - 1; k >= 1; --k) {
    const size_t v = static_cast<size_t>(s.order[k]);
    const size_t up = static_cast<size_t>(s.parent[v]);
    const double tree_edge = s.edge[v];
    const double link = s.mm[v];
    len += std::min(tree_edge, link);
    s.mm[up] = std::min(s.mm[up], std::max(tree_edge, link));
    if (len >= limit) return len;
  }
  return len + s.mm[static_cast<size_t>(s.order[0])];
}

// Writes the tree over s.pts[0, m) (pins first, then Steiner points with
// provenance s.src) into nodes/topo: an MST rooted at the driver, with a
// parent-before-child BFS order (children in ascending index).  `have_mst0`
// says s already holds prim(s, m, 0); for driver 0 that is the MST wanted,
// and Prim is not run again.
int finalize(RsmtScratch& s, int m, int num_pins, int driver,
             std::span<SteinerNode> nodes, std::span<int> topo,
             bool have_mst0 = false) {
  DTP_ASSERT_MSG(static_cast<size_t>(m) <= nodes.size() &&
                     static_cast<size_t>(m) <= topo.size(),
                 "Steiner tree exceeds its output slot");
  if (!(have_mst0 && driver == 0)) prim(s, m, driver);
  const size_t n = static_cast<size_t>(m);
  for (size_t v = 0; v < n; ++v) {
    SteinerNode& node = nodes[v];
    node.pos = s.pts[v];
    node.parent = s.parent[v];
    if (v < static_cast<size_t>(num_pins)) {
      node.x_src = static_cast<int>(v);
      node.y_src = static_cast<int>(v);
    } else {
      node.x_src = s.src[v - static_cast<size_t>(num_pins)].first;
      node.y_src = s.src[v - static_cast<size_t>(num_pins)].second;
    }
  }
  size_t size = 0;
  topo[size++] = driver;
  for (size_t head = 0; head < size; ++head)
    for (size_t v = 0; v < n; ++v)
      if (s.parent[v] == topo[head]) topo[size++] = static_cast<int>(v);
  DTP_ASSERT(size == n);
  return m;
}

// Exact 3-pin RSMT: one Steiner point at the coordinate-wise median.
int build_median3(RsmtScratch& s, int driver, std::span<SteinerNode> nodes,
                  std::span<int> topo) {
  // Median index per axis (the pin supplying the middle coordinate).
  auto median_idx = [&](auto coord) {
    int idx[3] = {0, 1, 2};
    std::sort(idx, idx + 3, [&](int a, int b) {
      return coord(s.pts[static_cast<size_t>(a)]) <
             coord(s.pts[static_cast<size_t>(b)]);
    });
    return idx[1];
  };
  const int mx = median_idx([](const Vec2& p) { return p.x; });
  const int my = median_idx([](const Vec2& p) { return p.y; });
  const Vec2 median{s.pts[static_cast<size_t>(mx)].x,
                    s.pts[static_cast<size_t>(my)].y};
  // If the median point coincides with a pin, the MST through the pins already
  // realizes the RSMT; no Steiner node needed.
  const bool coincides = std::find(s.pts.begin(), s.pts.begin() + 3, median) !=
                         s.pts.begin() + 3;
  if (coincides) return finalize(s, 3, 3, driver, nodes, topo);
  s.pts[3] = median;
  s.src[0] = {mx, my};
  return finalize(s, 4, 3, driver, nodes, topo);
}

// Iterated 1-Steiner (Kahng–Robins) over the pin Hanan grid, then the prune
// pass.  Returns the final point count; Steiner points are s.pts[n, m).
// `have_mst0` tells whether s holds prim(s, m, 0) of the returned point set
// on return.  Only the Prim runs whose inputs changed are made: a round that
// adds no point leaves the MST the prune pass starts from.
int kahng_robins(RsmtScratch& s, int n, const RsmtOptions& opts,
                 bool& have_mst0) {
  int m = n;
  have_mst0 = false;
  for (int round = 0; round < opts.kr_max_rounds; ++round) {
    prim(s, m, 0);
    have_mst0 = true;
    double best_len = mst_length(s, m);
    int best_i = -1, best_j = -1;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const Vec2 cand{s.pts[static_cast<size_t>(i)].x,
                        s.pts[static_cast<size_t>(j)].y};
        const double limit = best_len - opts.kr_min_gain;
        const double len = insertion_length(s, m, cand, limit);
        if (len < limit) {
          best_len = len;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i < 0) break;
    s.pts[static_cast<size_t>(m)] = {s.pts[static_cast<size_t>(best_i)].x,
                                     s.pts[static_cast<size_t>(best_j)].y};
    s.src[static_cast<size_t>(m - n)] = {best_i, best_j};
    ++m;
    have_mst0 = false;
  }

  // Prune Steiner points of MST degree <= 2: they cannot shorten a rectilinear
  // MST (triangle inequality), so dropping them never increases length.
  while (m > n) {
    if (!have_mst0) prim(s, m, 0);
    have_mst0 = true;
    std::fill(s.degree.begin(), s.degree.begin() + m, 0);
    for (size_t v = 1; v < static_cast<size_t>(m); ++v) {
      ++s.degree[v];
      ++s.degree[static_cast<size_t>(s.parent[v])];
    }
    int drop = -1;
    for (int v = n; v < m; ++v)
      if (s.degree[static_cast<size_t>(v)] <= 2) {
        drop = v;
        break;
      }
    if (drop < 0) break;
    std::copy(s.pts.begin() + drop + 1, s.pts.begin() + m, s.pts.begin() + drop);
    std::copy(s.src.begin() + (drop - n) + 1, s.src.begin() + (m - n),
              s.src.begin() + (drop - n));
    --m;
    have_mst0 = false;
  }
  return m;
}

}  // namespace

int max_tree_nodes(size_t num_pins, const RsmtOptions& opts) {
  if (num_pins <= 2) return static_cast<int>(num_pins);
  return static_cast<int>(num_pins) + std::max(1, opts.kr_max_rounds);
}

void publish_counts(const RsmtCounts& counts) {
  // Per-tree counter bumps would be far too hot (millions of trees per
  // placement, from every worker); builders count in their scratch instead.
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& trees_built = registry.counter("rsmt.trees_built");
  static obs::Counter& kr_refined = registry.counter("rsmt.kr_refined_trees");
  static obs::Counter& steiner_points = registry.counter("rsmt.steiner_points");
  trees_built.add(counts.trees);
  kr_refined.add(counts.kr_refined);
  steiner_points.add(counts.steiner_points);
}

RsmtScratch::RsmtScratch(size_t pin_capacity, const RsmtOptions& opts)
    : max_pins(pin_capacity) {
  const size_t cap =
      static_cast<size_t>(max_tree_nodes(std::max<size_t>(max_pins, 3), opts));
  pts.resize(cap);
  src.resize(cap - std::min(cap, max_pins));
  parent.resize(cap);
  order.resize(cap);
  degree.resize(cap);
  dist.resize(cap);
  edge.resize(cap);
  mm.resize(cap);
  in_tree.resize(cap);
}

int build_rsmt_into(RsmtScratch& s, int num_pins, int driver,
                    const RsmtOptions& opts, std::span<SteinerNode> nodes,
                    std::span<int> topo) {
  const int n = num_pins;
  DTP_ASSERT(n >= 1 && static_cast<size_t>(n) <= s.max_pins);
  DTP_ASSERT(driver >= 0 && driver < n);
  ++s.counts.trees;
  if (n == 3) return build_median3(s, driver, nodes, topo);
  if (n <= 2 || !opts.enable_1steiner || n > opts.kr_max_pins)
    return finalize(s, n, n, driver, nodes, topo);
  ++s.counts.kr_refined;
  bool have_mst0 = false;
  const int m = kahng_robins(s, n, opts, have_mst0);
  s.counts.steiner_points += static_cast<uint64_t>(m - n);
  return finalize(s, m, n, driver, nodes, topo, have_mst0);
}

namespace {

// Owning tree over `pins`: with `plain`, the MST over the pins alone;
// otherwise the tree build_rsmt_into makes.
SteinerTree build_owning(std::span<const Vec2> pins, int driver,
                         const RsmtOptions& opts, bool plain) {
  DTP_ASSERT(!pins.empty());
  DTP_ASSERT(driver >= 0 && static_cast<size_t>(driver) < pins.size());
  RsmtScratch scratch(pins.size(), opts);
  std::copy(pins.begin(), pins.end(), scratch.pts.begin());
  const int n = static_cast<int>(pins.size());
  const size_t cap = static_cast<size_t>(max_tree_nodes(pins.size(), opts));
  SteinerTree tree;
  tree.num_pins = n;
  tree.root = driver;
  tree.nodes.resize(cap);
  tree.topo_order.resize(cap);
  const int m =
      plain ? finalize(scratch, n, n, driver, tree.nodes, tree.topo_order)
            : build_rsmt_into(scratch, n, driver, opts, tree.nodes,
                              tree.topo_order);
  tree.nodes.resize(static_cast<size_t>(m));
  tree.topo_order.resize(static_cast<size_t>(m));
  publish_counts(scratch.counts);
  return tree;
}

}  // namespace

SteinerTree build_rsmt(std::span<const Vec2> pins, int driver,
                       const RsmtOptions& opts) {
  return build_owning(pins, driver, opts, /*plain=*/false);
}

SteinerTree build_rmst(std::span<const Vec2> pins, int driver) {
  return build_owning(pins, driver, RsmtOptions{}, /*plain=*/true);
}

double insertion_mst_length(std::span<const Vec2> pts, Vec2 p) {
  DTP_ASSERT(!pts.empty());
  RsmtScratch scratch(pts.size(), RsmtOptions{});
  std::copy(pts.begin(), pts.end(), scratch.pts.begin());
  const int m = static_cast<int>(pts.size());
  prim(scratch, m, 0);
  return insertion_length(scratch, m, p, kInf);
}

}  // namespace dtp::rsmt
