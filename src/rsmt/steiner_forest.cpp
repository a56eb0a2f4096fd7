#include "rsmt/steiner_forest.h"

namespace dtp::rsmt {

void SteinerForest::finalize() {
  const size_t n = capacity_.size();
  offset_.assign(n + 1, 0);
  int total = 0;
  for (size_t i = 0; i < n; ++i) {
    offset_[i] = total;
    total += capacity_[i];
  }
  offset_[n] = total;
  nodes_.assign(static_cast<size_t>(total), SteinerNode{});
  topo_.assign(static_cast<size_t>(total), 0);
}

void SteinerForest::rebuild(int net, RsmtScratch& scratch, int num_pins,
                            int driver, const RsmtOptions& opts) {
  const size_t n = static_cast<size_t>(net);
  const size_t off = static_cast<size_t>(offset_[n]);
  const size_t cap = static_cast<size_t>(capacity_[n]);
  count_[n] = build_rsmt_into(scratch, num_pins, driver, opts,
                              {nodes_.data() + off, cap},
                              {topo_.data() + off, cap});
  num_pins_[n] = num_pins;
  root_[n] = driver;
}

}  // namespace dtp::rsmt
