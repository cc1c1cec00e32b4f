#include "fg/forgiving_graph.h"

#include <algorithm>

#include "harness/certificate.h"
#include "util/check.h"

namespace fg {

void ForgivingGraph::commit_delete_batch(const core::RepairPlan& plan) {
  // The core performs the whole structural repair as one atomic step, on
  // the commit path the distributed engine shares. Both commit phases draw
  // every vnode from the plan's arena-id reservation, so the shard layer
  // may fan the break scripts *and* the region merges out over its pool
  // and still land on the byte-identical checkpoint and certificate bytes
  // at any worker count (contract C4, docs/CONCURRENCY.md).
  harness::CertificateBuilder builder;
  if (cert_sink_ != nullptr) builder.begin_wave(core_, plan);
  std::vector<VNodeId> roots = shards_.execute(core_, plan);
  if (cert_sink_ != nullptr)
    cert_sink_->on_certificate(builder.end_wave(core_, plan, certified_waves_++,
                                                roots, /*cost=*/nullptr));
}

ForgivingGraph ForgivingGraph::load(std::istream& is) {
  ForgivingGraph fg;
  fg.core_ = core::StructuralCore::load(is);
  return fg;
}

double ForgivingGraph::degree_ratio(NodeId v) const {
  FG_CHECK(healed().is_alive(v));
  int dp = gprime().degree(v);
  FG_CHECK(dp > 0);
  return static_cast<double>(healed().degree(v)) / dp;
}

double ForgivingGraph::max_degree_ratio() const {
  double worst = 1.0;
  for (NodeId v : healed().alive_nodes())
    if (gprime().degree(v) > 0) worst = std::max(worst, degree_ratio(v));
  return worst;
}

}  // namespace fg
