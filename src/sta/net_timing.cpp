#include "sta/net_timing.h"

#include <cmath>

#include "common/assert.h"

namespace dtp::sta {

NetTimingView view_of(NetTiming& nt) {
  const size_t m = nt.tree.num_nodes();
  nt.edge_len.resize(m);
  nt.edge_res.resize(m);
  nt.node_cap.resize(m);
  nt.load.resize(m);
  nt.delay.resize(m);
  nt.ldelay.resize(m);
  nt.beta.resize(m);
  nt.imp2.resize(m);
  nt.imp2_clamped.resize(m);
  nt.used_delay.resize(m);
  nt.d2m_degenerate.resize(m);
  return {rsmt::view_of(nt.tree), nt.edge_len, nt.edge_res, nt.node_cap,
          nt.load,                nt.delay,    nt.ldelay,   nt.beta,
          nt.imp2,                nt.imp2_clamped, nt.used_delay,
          nt.d2m_degenerate};
}

void elmore_forward(const NetTimingView& nt, std::span<const double> pin_caps,
                    double r_unit, double c_unit, WireDelayModel model) {
  const rsmt::SteinerTreeView& tree = nt.tree;
  const size_t m = tree.num_nodes();
  DTP_ASSERT(pin_caps.size() == static_cast<size_t>(tree.num_pins));
  if (m == 0) return;

  // Node caps accumulate in node order from both ends of every edge, so they
  // start from zero; edge lengths and resistances are written for every node
  // but the root.
  for (size_t v = 0; v < m; ++v) nt.node_cap[v] = 0.0;
  for (size_t v = 0; v < m; ++v) {
    const int p = tree.nodes[v].parent;
    if (p < 0) {
      nt.edge_len[v] = 0.0;
      nt.edge_res[v] = 0.0;
      continue;
    }
    const double len = manhattan(tree.nodes[v].pos, tree.nodes[static_cast<size_t>(p)].pos);
    nt.edge_len[v] = len;
    nt.edge_res[v] = r_unit * len;
    const double half_cap = 0.5 * c_unit * len;
    nt.node_cap[v] += half_cap;
    nt.node_cap[static_cast<size_t>(p)] += half_cap;
  }
  for (size_t k = 0; k < pin_caps.size(); ++k) nt.node_cap[k] += pin_caps[k];

  const auto& topo = tree.topo_order;
  const size_t root = static_cast<size_t>(tree.root);

  // Impulse^2 = 2*Beta - Delay^2, clamped for sqrt/division safety (Eq. 7e),
  // and the propagation delay under the selected wire model; both need only
  // the node's final Delay and Beta.
  const auto finish = [&](size_t v) {
    const double raw = 2.0 * nt.beta[v] - nt.delay[v] * nt.delay[v];
    if (raw < kImpulseFloor) {
      nt.imp2[v] = kImpulseFloor;
      nt.imp2_clamped[v] = 1;
    } else {
      nt.imp2[v] = raw;
      nt.imp2_clamped[v] = 0;
    }
    if (model == WireDelayModel::Elmore) {
      nt.used_delay[v] = nt.delay[v];
      nt.d2m_degenerate[v] = 1;  // "degenerate" == plain Elmore seeds
    } else if (nt.beta[v] < kD2mBetaFloor) {
      nt.used_delay[v] = nt.delay[v];  // zero-length geometry: m2 ~ 0
      nt.d2m_degenerate[v] = 1;
    } else {
      nt.used_delay[v] =
          kLn2 * nt.delay[v] * nt.delay[v] / std::sqrt(nt.beta[v]);
      nt.d2m_degenerate[v] = 0;
    }
  };

  // Pass 1 (bottom-up): Load(u) = Cap(u) + sum_child Load(v).       (Eq. 7a)
  for (size_t v = 0; v < m; ++v) nt.load[v] = nt.node_cap[v];
  for (size_t k = m; k-- > 1;) {
    const int v = topo[k];
    const int p = tree.nodes[static_cast<size_t>(v)].parent;
    nt.load[static_cast<size_t>(p)] += nt.load[static_cast<size_t>(v)];
  }

  // Pass 2 (top-down): Delay(u) = Delay(fa) + Res(fa->u)*Load(u).   (Eq. 7b)
  // A node's delay is final once written, so it also seeds its LDelay term
  // Cap(u)*Delay(u) for pass 3.
  nt.delay[root] = 0.0;
  nt.ldelay[root] = nt.node_cap[root] * nt.delay[root];
  for (size_t k = 1; k < m; ++k) {
    const size_t v = static_cast<size_t>(topo[k]);
    const size_t p = static_cast<size_t>(tree.nodes[v].parent);
    nt.delay[v] = nt.delay[p] + nt.edge_res[v] * nt.load[v];
    nt.ldelay[v] = nt.node_cap[v] * nt.delay[v];
  }

  // Pass 3 (bottom-up): LDelay(u) = Cap(u)*Delay(u) + sum LDelay(v). (Eq. 7c)
  for (size_t k = m; k-- > 1;) {
    const int v = topo[k];
    const int p = tree.nodes[static_cast<size_t>(v)].parent;
    nt.ldelay[static_cast<size_t>(p)] += nt.ldelay[static_cast<size_t>(v)];
  }

  // Pass 4 (top-down): Beta(u) = Beta(fa) + Res(fa->u)*LDelay(u),   (Eq. 7d)
  // finishing each node as its Beta becomes final.
  nt.beta[root] = 0.0;
  finish(root);
  for (size_t k = 1; k < m; ++k) {
    const size_t v = static_cast<size_t>(topo[k]);
    const size_t p = static_cast<size_t>(tree.nodes[v].parent);
    nt.beta[v] = nt.beta[p] + nt.edge_res[v] * nt.ldelay[v];
    finish(v);
  }
}

void elmore_forward(NetTiming& nt, std::span<const double> pin_caps,
                    double r_unit, double c_unit, WireDelayModel model) {
  elmore_forward(view_of(nt), pin_caps, r_unit, c_unit, model);
}

}  // namespace dtp::sta
