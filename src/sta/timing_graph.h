// Pin-level timing graph with topological levelization (paper §3.3 step 1).
//
// Nodes are netlist pins; arcs are either *net arcs* (net driver -> each sink,
// carrying Elmore delay/impulse) or *cell arcs* (cell input -> cell output,
// carrying NLDM LUT delay/slew).  Pins are grouped by topological level so the
// forward propagation sweeps levels 0..L and the backward gradient sweeps
// L..0 — the structure the paper maps onto one GPU kernel launch per level,
// and that we run as one serial loop over the level schedule each way.
//
// Storage is flat CSR throughout (DESIGN.md §10): the level schedule is one
// contiguous pin array plus a level-offset table — consumed identically by
// the forward sweep (ascending flat order) and the backward sweep (levels
// descending, pins within a level ascending) — and fan-in/fan-out adjacency
// are offset-indexed flat arc-index arrays.  Cell arcs reference their NLDM
// tables by *index* into a graph-owned liberty-arc table rather than by raw
// pointer, so a reloaded/reallocated cell library is re-attached with
// rebind_library() instead of silently dangling.
//
// Clock handling (ideal clock, DESIGN.md §1): nets that touch a clock lib-pin
// are *clock nets*; their net arcs are excluded from the graph, and every
// clock input pin becomes a level-0 source with AT = 0 and slew = the
// constraint's clock slew.  Sequential cells therefore start paths at their
// CK->Q arc and end them at their D pin (a timing endpoint), cutting all
// sequential loops.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace dtp::sta {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

enum class ArcKind : uint8_t { NetArc, CellArc };

struct Arc {
  PinId from = netlist::kInvalidId;
  PinId to = netlist::kInvalidId;
  ArcKind kind = ArcKind::NetArc;
  NetId net = netlist::kInvalidId;  // for net arcs
  int sink_index = -1;              // net-pin index of `to` within the net
  int lib_arc = -1;                 // for cell arcs: TimingGraph::lib_arc index
};

enum class EndpointKind : uint8_t { FlopData, PrimaryOutput };

struct Endpoint {
  PinId pin = netlist::kInvalidId;
  EndpointKind kind = EndpointKind::FlopData;
  double setup = 0.0;  // setup constraint (FF setup time, or PO output delay)
  double hold = 0.0;
};

class TimingGraph {
 public:
  // Builds the graph; throws std::runtime_error on combinational cycles.
  explicit TimingGraph(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }

  // ---- levels (CSR schedule) ----
  int num_levels() const {
    return static_cast<int>(level_offsets_.size()) - 1;
  }
  // Pins of one level: a slice of the flat schedule.
  std::span<const PinId> level(int l) const {
    const size_t b = static_cast<size_t>(level_offsets_[static_cast<size_t>(l)]);
    const size_t e =
        static_cast<size_t>(level_offsets_[static_cast<size_t>(l) + 1]);
    return {level_pins_.data() + b, e - b};
  }
  // The flat schedule itself: all in-graph pins, level-major, and the
  // per-level offsets (size num_levels()+1) slicing it.
  std::span<const PinId> level_pins() const { return level_pins_; }
  std::span<const int> level_offsets() const { return level_offsets_; }
  int level_of(PinId p) const { return level_of_pin_[static_cast<size_t>(p)]; }
  bool in_graph(PinId p) const { return level_of_pin_[static_cast<size_t>(p)] >= 0; }

  // ---- arcs ----
  std::span<const Arc> arcs() const { return arcs_; }
  size_t num_arcs() const { return arcs_.size(); }
  // Fan-in arcs of a pin (indices into arcs()).
  std::span<const int> fanin(PinId p) const {
    const size_t b = static_cast<size_t>(fanin_offsets_[static_cast<size_t>(p)]);
    const size_t e =
        static_cast<size_t>(fanin_offsets_[static_cast<size_t>(p) + 1]);
    return {fanin_arcs_.data() + b, e - b};
  }
  // Fan-out arcs of a pin (indices into arcs()).
  std::span<const int> fanout(PinId p) const {
    const size_t b = static_cast<size_t>(fanout_offsets_[static_cast<size_t>(p)]);
    const size_t e =
        static_cast<size_t>(fanout_offsets_[static_cast<size_t>(p) + 1]);
    return {fanout_arcs_.data() + b, e - b};
  }

  // ---- liberty arc table ----
  // Resolves a cell arc's NLDM tables.  The table is deduplicated per
  // (lib cell, arc) pair, so its size is O(library), not O(netlist).
  const liberty::TimingArc& lib_arc(int index) const {
    return *lib_arc_ptrs_[static_cast<size_t>(index)];
  }
  size_t num_lib_arcs() const { return lib_arc_ptrs_.size(); }
  // Re-resolves the liberty-arc pointer table against `lib` (e.g. after the
  // library was reloaded or moved).  `lib` must contain the same cells/arcs
  // (by index) the graph was built against, with the same table axes: a
  // timer checks which pins' tables share their axes when it is built.
  void rebind_library(const liberty::CellLibrary& lib);

  // ---- sources / endpoints ----
  // Level-0 pins with no fan-in: PI pads and clock pins.
  std::span<const PinId> sources() const {
    return num_levels() > 0 ? level(0) : std::span<const PinId>{};
  }
  const std::vector<Endpoint>& endpoints() const { return endpoints_; }
  bool pin_is_clock_source(PinId p) const {
    return is_clock_source_[static_cast<size_t>(p)];
  }

  // ---- nets ----
  bool is_clock_net(NetId n) const { return is_clock_net_[static_cast<size_t>(n)]; }
  // Nets carried by the timing graph (driver + >=1 sink, not clock).
  const std::vector<NetId>& timing_nets() const { return timing_nets_; }
  // The net driven by this pin if it drives a timing net, else kInvalidId.
  NetId driven_timing_net(PinId p) const {
    return driven_net_[static_cast<size_t>(p)];
  }

  // Longest combinational level depth (diagnostics; the paper's ">300 layers").
  int max_depth() const { return num_levels(); }

 private:
  const netlist::Netlist* nl_;
  std::vector<int> level_of_pin_;
  std::vector<int> level_offsets_;   // CSR: size num_levels()+1
  std::vector<PinId> level_pins_;    // flat level-major pin schedule
  std::vector<Arc> arcs_;
  std::vector<int> fanin_offsets_;   // CSR: size num_pins+1
  std::vector<int> fanin_arcs_;
  std::vector<int> fanout_offsets_;  // CSR: size num_pins+1
  std::vector<int> fanout_arcs_;
  // Liberty arc table: stable (lib cell, arc index) keys + resolved pointers.
  std::vector<std::pair<int, int>> lib_arc_keys_;
  std::vector<const liberty::TimingArc*> lib_arc_ptrs_;
  std::vector<Endpoint> endpoints_;
  std::vector<char> is_clock_net_;
  std::vector<char> is_clock_source_;
  std::vector<NetId> timing_nets_;
  std::vector<NetId> driven_net_;
};

}  // namespace dtp::sta
