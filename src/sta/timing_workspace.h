// Shared SoA timing workspace: every state array the forward timer and the
// differentiable backward pass touch, owned in one place (DESIGN.md §10).
//
// The seed implementation split this state between sta::Timer (AT/slew/RAT,
// per-net NetTiming heap objects) and dtimer::DiffTimer (adjoints, per-net
// seed vectors-of-vectors, per-call scratch).  The workspace flattens all of
// it into arenas sized once at construction:
//
//   * SteinerForest — all nets' trees in two flat arenas (fixed per-net
//     capacity, so rebuilds and drags happen strictly in place);
//   * per-node net state (load/delay/ldelay/beta/imp2/used_delay/...) — one
//     arena per quantity, sliced per net by the forest offsets into a
//     NetTimingView;
//   * per-pin sweep state [pin*2 + transition] — AT, slew, RAT and their
//     adjoints, for both corners;
//   * the cell-arc candidate cache — the forward sweep records each pin's
//     gathered candidates (LUT queries included) and, in smooth mode, their
//     AT and slew softmax weights; the backward sweep and the RAT sweep reuse
//     them instead of re-running lookup_grad and the LSE;
//   * static backward records — one per level-schedule slot (fan-in kind,
//     wire source and arena node, driven net) plus a net-pin slot -> pin
//     table, so the adjoint sweep streams flat arrays;
//   * scratch — capacity-reserved vectors for the level sweeps, slack
//     aggregation, endpoint seeding and the Elmore adjoint, plus one
//     RsmtScratch per dispatch slot for the pooled tree rebuild.
//
// Zero-allocation contract: after construction (and the first forward), a
// forward pass — drag path or full Steiner rebuild (build_trees, which builds
// straight into the forest with one RsmtScratch per dispatch slot) — plus a
// backward pass performs no heap allocation.  Scratch vectors are only ever
// resized within their reserved capacity; everything else is written through
// pre-sized arrays.  tests/test_zero_alloc.cpp enforces this with a counting
// global allocator.  evaluate_incremental's worklist is outside the contract.
#pragma once

#include <cstdint>
#include <vector>

#include "common/vec2.h"
#include "netlist/netlist.h"
#include "rsmt/rsmt_builder.h"
#include "rsmt/steiner_forest.h"
#include "sta/cell_arc_eval.h"
#include "sta/net_timing.h"
#include "sta/timing_graph.h"

namespace dtp::sta {

// Scratch of the forward level sweep's cell-arc aggregation (update_pin).
struct LevelScratch {
  std::vector<ArcCandidate> cands;  // early-corner gathers (late uses the cache)
  std::vector<double> values;
  std::vector<double> weights;
};

class TimingWorkspace {
 public:
  // `smooth` sizes the cached softmax weights of the candidate cache.
  TimingWorkspace(const netlist::Design& design, const TimingGraph& graph,
                  bool enable_early, bool smooth,
                  const rsmt::RsmtOptions& rsmt_opts, size_t num_slots);

  // ---- Steiner forest + per-node net state arenas ----
  rsmt::SteinerForest forest;
  std::vector<double> edge_len, edge_res, node_cap, load, delay, ldelay, beta,
      imp2, used_delay;
  std::vector<char> imp2_clamped, d2m_degenerate;

  // View of one net's slice of the data plane (empty tree view before the
  // first build).
  NetTimingView net_view(NetId n) {
    const size_t off = static_cast<size_t>(forest.node_offset(n));
    const size_t cnt = static_cast<size_t>(forest.num_nodes(n));
    return {forest.tree(n),
            {edge_len.data() + off, cnt},
            {edge_res.data() + off, cnt},
            {node_cap.data() + off, cnt},
            {load.data() + off, cnt},
            {delay.data() + off, cnt},
            {ldelay.data() + off, cnt},
            {beta.data() + off, cnt},
            {imp2.data() + off, cnt},
            {imp2_clamped.data() + off, cnt},
            {used_delay.data() + off, cnt},
            {d2m_degenerate.data() + off, cnt}};
  }
  // Driver-seen load of a net without materializing the full view.
  double net_root_load(NetId n) const {
    const size_t off = static_cast<size_t>(forest.node_offset(n));
    return load[off + static_cast<size_t>(root_of(n))];
  }
  int root_of(NetId n) const { return forest.tree(n).root; }

  // ---- per-net sink pin caps (aligned with net.pins) ----
  std::span<const double> net_pin_caps(NetId n) const {
    const size_t b = static_cast<size_t>(pin_cap_offsets[static_cast<size_t>(n)]);
    const size_t e =
        static_cast<size_t>(pin_cap_offsets[static_cast<size_t>(n) + 1]);
    return {pin_caps.data() + b, e - b};
  }
  std::vector<int> pin_cap_offsets;  // size num_nets + 1
  std::vector<double> pin_caps;
  // The pins themselves, same slots: a tree's pin nodes come first and in
  // net-pin order, so net_pins(n)[x_src] resolves a Steiner node's source pin
  // without touching Net::pins (the adjoint fold).
  std::span<const PinId> net_pins(NetId n) const {
    const size_t b = static_cast<size_t>(pin_cap_offsets[static_cast<size_t>(n)]);
    const size_t e =
        static_cast<size_t>(pin_cap_offsets[static_cast<size_t>(n) + 1]);
    return {pin_ids.data() + b, e - b};
  }
  std::vector<PinId> pin_ids;

  // ---- per-pin forward state ----
  std::vector<Vec2> pin_pos;
  std::vector<double> at, slew;              // late, [pin*2 + tr]
  std::vector<double> at_early, slew_early;  // enable_early only
  std::vector<double> rat;                   // late required times
  std::vector<double> src_at, src_slew;      // source initial conditions

  // ---- cell-arc candidate cache (late corner) ----
  // For a pin with cell-arc fan-in, region (p, tr_out) holds the candidates
  // the forward sweep gathered.  Its capacity is the pin's static candidate
  // count: one per unate fan-in arc, two per non-unate one (the same for both
  // output transitions).  A smooth-mode timer also keeps, slot for slot, the
  // softmax weights of the AT and slew aggregations (cand_w_at / cand_w_slew;
  // empty in hard mode).
  size_t cand_offset(PinId p, int tr_out) const {
    return static_cast<size_t>(cand_base[static_cast<size_t>(p)]) +
           static_cast<size_t>(tr_out) *
               static_cast<size_t>(cand_tr_cap[static_cast<size_t>(p)]);
  }
  ArcCandidate* cand_ptr(PinId p, int tr_out) {
    return cand.data() + cand_offset(p, tr_out);
  }
  std::vector<int> cand_base;    // per pin; -1 when no cell-arc fan-in
  std::vector<int> cand_tr_cap;  // per pin: capacity per transition
  std::vector<int> cand_count;   // [pin*2 + tr_out]: cached candidate count
  std::vector<ArcCandidate> cand;
  std::vector<double> cand_w_at, cand_w_slew;  // smooth mode only

  // ---- static backward records ----
  // One record per slot of the level schedule (graph.level_pins() order), so
  // the reverse sweep reads them in sequence.
  enum class Fanin : uint8_t { None, Net, Cell };
  struct AdjointRecord {
    PinId pin = netlist::kInvalidId;
    PinId from = netlist::kInvalidId;  // Net: the wire arc's driver pin
    int node = -1;                     // Net: this sink's arena node
    NetId driven = netlist::kInvalidId;  // timing net the pin drives
    Fanin kind = Fanin::None;
  };
  std::vector<AdjointRecord> adjoint;

  // ---- adjoint state (backward pass) ----
  std::vector<double> g_at, g_slew;
  std::vector<double> g_at_early, g_slew_early;
  std::vector<double> g_load;              // per net: root-load adjoint
  std::vector<double> pin_gx, pin_gy;      // per pin coordinate gradients
  std::vector<double> g_net_delay, g_net_imp2;  // node arenas (forest offsets)
  std::span<double> net_g_delay(NetId n) {
    const size_t off = static_cast<size_t>(forest.node_offset(n));
    return {g_net_delay.data() + off,
            static_cast<size_t>(forest.num_nodes(n))};
  }
  std::span<double> net_g_imp2(NetId n) {
    const size_t off = static_cast<size_t>(forest.node_offset(n));
    return {g_net_imp2.data() + off, static_cast<size_t>(forest.num_nodes(n))};
  }

  // ---- scratch (capacity-reserved; resized only within capacity) ----
  std::vector<rsmt::RsmtScratch> rsmt_scratch;     // per dispatch slot
  LevelScratch level_scratch;                      // forward level sweep
  std::vector<double> values, w_at, w_slew;        // serial sweeps
  std::vector<ArcCandidate> cands;                 // serial gathers
  std::vector<double> ep_scratch;                  // smooth slack accumulation
  std::vector<double> ep_finite, ep_weights, ep_g; // endpoint seeding
  std::vector<size_t> ep_finite_idx;
  std::vector<double> el_gbeta, el_gldelay, el_gdelay, el_gload;  // Elmore adj
  std::vector<double> scratch_gx, scratch_gy, scratch_gbeta;      // per net

  size_t max_net_nodes() const { return max_net_nodes_; }
  size_t max_candidates() const { return max_candidates_; }

 private:
  size_t max_net_nodes_ = 0;
  size_t max_candidates_ = 0;
};

}  // namespace dtp::sta
