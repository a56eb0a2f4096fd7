#include "dtimer/elmore_grad.h"

#include <vector>

#include "common/assert.h"
#include "common/smooth_math.h"

namespace dtp::dtimer {

void elmore_backward(const sta::NetTimingView& nt,
                     std::span<const double> g_delay,
                     std::span<const double> g_imp2, double g_load_root,
                     double r_unit, double c_unit, std::span<double> gx,
                     std::span<double> gy, ElmoreScratch scratch,
                     std::span<const double> g_beta) {
  const rsmt::SteinerTreeView& tree = nt.tree;
  const size_t m = tree.num_nodes();
  DTP_ASSERT(g_delay.size() == m && g_imp2.size() == m);
  DTP_ASSERT(g_beta.empty() || g_beta.size() == m);
  DTP_ASSERT(gx.size() == m && gy.size() == m);
  DTP_ASSERT(scratch.gbeta.size() >= m && scratch.gldelay.size() >= m &&
             scratch.gdelay.size() >= m && scratch.gload.size() >= m);
  if (m == 0) return;
  const auto& topo = tree.topo_order;

  double* gbeta = scratch.gbeta.data();
  double* gldelay = scratch.gldelay.data();
  double* gdelay = scratch.gdelay.data();
  double* gload = scratch.gload.data();

  // Effective gImp2 with the clamp mask applied.
  auto imp2_grad = [&](size_t v) -> double {
    return nt.imp2_clamped[v] ? 0.0 : g_imp2[v];
  };

  // R1 (bottom-up): gBeta.
  for (size_t v = 0; v < m; ++v)
    gbeta[v] = 2.0 * imp2_grad(v) + (g_beta.empty() ? 0.0 : g_beta[v]);
  for (size_t k = m; k-- > 1;) {
    const int v = topo[k];
    const int p = tree.nodes[static_cast<size_t>(v)].parent;
    gbeta[static_cast<size_t>(p)] += gbeta[static_cast<size_t>(v)];
  }

  // R2 (top-down): gLDelay.  A node's gLDelay is final once written, so it
  // also seeds the node's own gDelay term for R3.
  const size_t root = static_cast<size_t>(tree.root);
  gldelay[root] = 0.0;
  gdelay[root] = g_delay[root] + nt.node_cap[root] * gldelay[root] -
                 2.0 * nt.delay[root] * imp2_grad(root);
  for (size_t k = 1; k < m; ++k) {
    const size_t v = static_cast<size_t>(topo[k]);
    const size_t p = static_cast<size_t>(tree.nodes[v].parent);
    gldelay[v] = nt.edge_res[v] * gbeta[v] + gldelay[p];
    gdelay[v] = g_delay[v] + nt.node_cap[v] * gldelay[v] -
                2.0 * nt.delay[v] * imp2_grad(v);
  }

  // R3 (bottom-up): gDelay.
  for (size_t k = m; k-- > 1;) {
    const int v = topo[k];
    const int p = tree.nodes[static_cast<size_t>(v)].parent;
    gdelay[static_cast<size_t>(p)] += gdelay[static_cast<size_t>(v)];
  }

  // R4 (top-down): gLoad, and with it the pointwise part: gCap, gRes ->
  // edge-length gradient -> coordinates.  Both ends of v's edge are final
  // once gLoad(v) is (its parent came earlier in topological order).
  gload[root] = g_load_root;
  for (size_t k = 1; k < m; ++k) {
    const size_t v = static_cast<size_t>(topo[k]);
    const size_t p = static_cast<size_t>(tree.nodes[v].parent);
    gload[v] = nt.edge_res[v] * gdelay[v] + gload[p];
    const double gcap_v = gload[v] + nt.delay[v] * gldelay[v];
    const double gcap_p = gload[p] + nt.delay[p] * gldelay[p];
    const double gres = nt.load[v] * gdelay[v] + nt.ldelay[v] * gbeta[v];
    const double glen = r_unit * gres + 0.5 * c_unit * (gcap_v + gcap_p);
    const Vec2& pv = tree.nodes[v].pos;
    const Vec2& pp = tree.nodes[p].pos;
    const double sx = sign(pv.x - pp.x);
    const double sy = sign(pv.y - pp.y);
    gx[v] += glen * sx;
    gx[p] -= glen * sx;
    gy[v] += glen * sy;
    gy[p] -= glen * sy;
  }
}

void elmore_backward(const sta::NetTiming& nt, std::span<const double> g_delay,
                     std::span<const double> g_imp2, double g_load_root,
                     double r_unit, double c_unit, std::span<double> gx,
                     std::span<double> gy, std::span<const double> g_beta) {
  const size_t m = nt.tree.num_nodes();
  thread_local std::vector<double> gbeta, gldelay, gdelay, gload;
  gbeta.resize(m);
  gldelay.resize(m);
  gdelay.resize(m);
  gload.resize(m);
  // The owning NetTiming is forward state already sized to m; view it without
  // resizing (const_cast is safe: the backward pass only reads it).
  sta::NetTiming& mut = const_cast<sta::NetTiming&>(nt);
  elmore_backward(sta::view_of(mut), g_delay, g_imp2, g_load_root, r_unit,
                  c_unit, gx, gy, ElmoreScratch{gbeta, gldelay, gdelay, gload},
                  g_beta);
}

}  // namespace dtp::dtimer
