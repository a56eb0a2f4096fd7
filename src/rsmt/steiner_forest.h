// Arena-of-trees storage for every timing net's Steiner tree (DESIGN.md §10).
//
// The seed implementation kept a `vector<SteinerTree>` — one pair of heap
// vectors (nodes, topo order) per net, reallocated on every rebuild and
// copied through a temporary pin-position vector on every drag.  The forest
// replaces that with two flat arenas (node records and topo entries) plus a
// per-net offset table: one allocation at construction, zero allocations at
// steady state, and cache-friendly sequential layout when the per-net Elmore
// kernels sweep net after net.
//
// Offsets are computed once from a fixed per-net node *capacity* (the net's
// degree plus the worst-case number of 1-Steiner insertions the builder can
// make), so a rebuild that changes a tree's Steiner count never moves its
// neighbours: trees are rebuilt and dragged strictly in place.  `rebuild`
// runs the RSMT builder straight into the slot and checks the capacity
// invariant.
//
// Trees are addressed by NetId; nets that carry no tree (clock nets,
// dangling nets) have zero capacity and an empty view.
#pragma once

#include <vector>

#include "rsmt/rsmt_builder.h"
#include "rsmt/steiner_tree.h"

namespace dtp::rsmt {

class SteinerForest {
 public:
  SteinerForest() = default;

  // Two-phase construction: declare every net's capacity, then finalize to
  // allocate the arenas.  `net` indices must be < num_nets.
  explicit SteinerForest(size_t num_nets)
      : capacity_(num_nets, 0), count_(num_nets, 0), num_pins_(num_nets, 0),
        root_(num_nets, 0) {}
  void set_capacity(int net, int node_capacity) {
    capacity_[static_cast<size_t>(net)] = node_capacity;
  }
  void finalize();

  size_t num_nets() const { return capacity_.size(); }
  size_t total_capacity() const { return nodes_.size(); }
  int node_offset(int net) const { return offset_[static_cast<size_t>(net)]; }
  int node_capacity(int net) const { return capacity_[static_cast<size_t>(net)]; }
  int num_nodes(int net) const { return count_[static_cast<size_t>(net)]; }
  bool has_tree(int net) const { return count_[static_cast<size_t>(net)] > 0; }

  // Builds the net's tree over scratch.pts[0, num_pins) rooted at pin
  // `driver` directly into its arena slot (build_rsmt_into).  Aborts if the
  // tree exceeds the slot's capacity.
  void rebuild(int net, RsmtScratch& scratch, int num_pins, int driver,
               const RsmtOptions& opts);

  // Mutable view of one net's tree; empty view when the net has no tree.
  SteinerTreeView tree(int net) {
    const size_t n = static_cast<size_t>(net);
    const size_t off = static_cast<size_t>(offset_[n]);
    const size_t cnt = static_cast<size_t>(count_[n]);
    return {num_pins_[n], root_[n],
            std::span<SteinerNode>(nodes_.data() + off, cnt),
            std::span<const int>(topo_.data() + off, cnt)};
  }
  SteinerTreeView tree(int net) const {
    // Views are inherently mutable (the drag path writes positions); const
    // access shares the implementation.
    return const_cast<SteinerForest*>(this)->tree(net);
  }

 private:
  std::vector<int> capacity_;  // per net: arena slot size
  std::vector<int> count_;     // per net: nodes currently stored
  std::vector<int> num_pins_;
  std::vector<int> root_;
  std::vector<int> offset_;    // per net: arena start (size num_nets + 1)
  std::vector<SteinerNode> nodes_;
  std::vector<int> topo_;      // per-net topo orders, same offsets as nodes_
};

}  // namespace dtp::rsmt
