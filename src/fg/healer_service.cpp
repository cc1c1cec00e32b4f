#include "fg/healer_service.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string>
#include <utility>

#include "cert/certificate.h"
#include "fg/stabilizer.h"
#include "util/check.h"

namespace fg {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Why `neighbors` cannot attach a new node to `fg` (a dead, unknown or
/// repeated neighbour), or "" when they can.
std::string insert_problem(const ForgivingGraph& fg, std::vector<NodeId> neighbors) {
  for (NodeId y : neighbors)
    if (!fg.is_alive(y)) return "neighbor " + std::to_string(y) + " is not alive";
  std::sort(neighbors.begin(), neighbors.end());
  auto dup = std::adjacent_find(neighbors.begin(), neighbors.end());
  if (dup != neighbors.end()) return "neighbor " + std::to_string(*dup) + " repeats";
  return {};
}

}  // namespace

double HealerStats::latency_percentile(double p) const {
  if (wave_ms.empty()) return 0.0;
  std::vector<double> sorted = wave_ms;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks (the numpy default).
  double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

HealerService::HealerService(const Graph& g0, HealerConfig config)
    : fg_(g0), config_(config) {
  init();
}

HealerService::HealerService(core::StructuralCore&& restored, uint64_t waves_done,
                             uint64_t ops_done, HealerConfig config)
    : fg_(std::move(restored)), config_(config) {
  // Wave indexing and the resume cursor continue from the restore point, so
  // every sampled guardrail (certify_every, audit_every) and every future
  // delta's cursor line up with the uninterrupted run.
  stats_.waves = static_cast<int64_t>(waves_done);
  stats_.ops = static_cast<int64_t>(ops_done);
  init();
}

void HealerService::init() {
  FG_CHECK_MSG(config_.wave_size >= 1, "wave_size must be at least 1");
  FG_CHECK_MSG(config_.certify_every >= 0, "certify_every must be non-negative");
  FG_CHECK_MSG(config_.audit_every >= 0, "audit_every must be non-negative");
  FG_CHECK_MSG(config_.snapshot_every >= 0, "snapshot_every must be non-negative");
  FG_CHECK_MSG(config_.snapshot_every == 0 || !config_.snapshot_path.empty(),
               "snapshot_every needs a snapshot_path");
  fg_.set_shard_workers(config_.plan_workers);
  fg_.set_commit_workers(config_.commit_workers);
  fg_.set_break_workers(config_.break_workers);
  if (config_.snapshot_every > 0) {
    snapshot_ = std::make_unique<SnapshotWriter>(config_.snapshot_path + ".base",
                                                 config_.snapshot_path + ".log",
                                                 config_.snapshot_every);
    std::string err;
    bool wrote = snapshot_->begin(fg_.core(), static_cast<uint64_t>(stats_.waves),
                                  static_cast<uint64_t>(stats_.ops), &err);
    FG_CHECK_MSG(wrote, "snapshot: initial base write failed");
    fg_.core().set_delta_recorder(snapshot_.get());
  }
}

HealerService::~HealerService() {
  if (snapshot_) fg_.core().set_delta_recorder(nullptr);
}

void HealerService::push(const ChurnOp& op) {
  ++stats_.ops;
  if (op.kind == ChurnOp::Kind::kInsert) {
    // The core allocates the id and bumps the epoch before it checks the
    // neighbours, so a bad one must be caught here — rejected without a
    // trace in the engine, as if the op were never sent.
    std::string problem = insert_problem(fg_, op.neighbors);
    if (!problem.empty()) {
      ++stats_.rejected_inserts;
      if (alert_) alert_(stats_.waves, "insert rejected: " + problem);
      return;
    }
    fg_.insert(op.neighbors);
    ++stats_.inserts;
    return;
  }
  if (!fg_.is_alive(op.victim) || forming_set_.contains(op.victim)) {
    ++stats_.dropped_deletes;
    return;
  }
  forming_.push_back(op.victim);
  forming_set_.insert(op.victim);
  if (static_cast<int>(forming_.size()) >= config_.wave_size) dispatch_wave();
}

void HealerService::flush() {
  if (!forming_.empty()) dispatch_wave();
}

int64_t HealerService::run(ChurnStream& stream) {
  int64_t before = stats_.ops;
  ChurnOp op;
  while (stream.next(&op)) push(op);
  flush();
  return stats_.ops - before;
}

void HealerService::dispatch_wave() {
  std::vector<NodeId> victims = std::move(forming_);
  forming_.clear();
  forming_set_.clear();
  const int64_t wave = stats_.waves;

  // The wave's resume cursor: every op so far is applied (inserts),
  // dropped, rejected, committed in an earlier wave, or in THIS wave — so
  // once this wave commits, the state reflects exactly ops [0, cursor).
  if (snapshot_) snapshot_->set_cursor(static_cast<uint64_t>(stats_.ops));

  Clock::time_point t0 = Clock::now();
  core::RepairPlan plan = fg_.plan_delete_batch(victims);
  stats_.plan_ms.push_back(ms_since(t0));

  if (admission_hook_) admission_hook_(wave);

  // The epoch gate: the plan was computed against an epoch-stamped logical
  // snapshot; if any mutation landed since — through the admission hook or
  // an external engine() call — the plan is stale, and committing it would
  // die on the core's FG_CHECK. Detect, re-plan, never commit.
  if (plan.epoch != fg_.mutation_epoch()) {
    ++stats_.stale_replans;
    // The intervening mutation may even have killed victims (an external
    // delete through engine()); re-validate before re-planning.
    std::vector<NodeId> alive;
    alive.reserve(victims.size());
    for (NodeId v : victims)
      if (fg_.is_alive(v)) alive.push_back(v);
    stats_.dropped_deletes += static_cast<int64_t>(victims.size() - alive.size());
    victims = std::move(alive);
    if (victims.empty()) {
      ++stats_.waves;
      stats_.wave_ms.push_back(ms_since(t0));
      return;
    }
    plan = fg_.plan_delete_batch(victims);
  }

  // Saves `c` to the certificate stream and checks it in-process; a
  // rejection is counted and alerted.
  auto check_certificate = [&](const cert::WaveCertificate& c) {
    if (cert_stream_ != nullptr) c.save(*cert_stream_);
    cert::CheckResult res = cert::check(c);
    if (!res.ok) {
      ++stats_.cert_rejections;
      if (alert_) alert_(wave, res.diagnostic);
    }
  };

  const bool sampled =
      config_.certify_every > 0 && wave % config_.certify_every == 0;
  if (sampled) {
    collector_.certs.clear();
    fg_.set_certificate_sink(&collector_);
  }
  fg_.commit_delete_batch(plan);
  if (sampled) {
    fg_.set_certificate_sink(nullptr);
    FG_CHECK(collector_.certs.size() == 1);
    ++stats_.certified_waves;
    check_certificate(collector_.certs.front());
    collector_.certs.clear();
  }

  // Self-stabilization guardrail (config_.audit_every): a sampled
  // post-commit audit against I1-I5. On any violation, alert with the
  // report summary and stabilize immediately — the recovery wave's
  // certificate goes through the same save/check path as a sampled
  // deletion wave.
  if (config_.audit_every > 0 && wave % config_.audit_every == 0) {
    ++stats_.audits;
    Stabilizer stabilizer(fg_);
    AuditReport report = stabilizer.audit();
    if (!report.clean()) {
      stats_.audit_violations += report.total;
      if (alert_) alert_(wave, "audit: " + report.summary());
      collector_.certs.clear();
      fg_.set_certificate_sink(&collector_);
      RecoveryStats recovery = stabilizer.stabilize();
      fg_.set_certificate_sink(nullptr);
      FG_CHECK(recovery.recovered && collector_.certs.size() == 1);
      ++stats_.recoveries;
      check_certificate(collector_.certs.front());
      collector_.certs.clear();
    }
  }
  stats_.deletes += static_cast<int64_t>(victims.size());
  ++stats_.waves;
  stats_.wave_ms.push_back(ms_since(t0));

  // Snapshot upkeep: the wave's delta was appended when the commit fired
  // on_wave_committed; rotate to a fresh base when due, or rebase after
  // anything that diverged the mutation epoch from the op stream (the
  // stabilize() recovery above, an admission-hook mutation). Disk failures
  // degrade to an alert, never to a crash — the service keeps healing, the
  // snapshot goes stale.
  if (snapshot_) {
    snapshot_->maintain(fg_.core());
    std::string err = snapshot_->take_error();
    if (!err.empty() && alert_) alert_(wave, "snapshot: " + err);
  }
}

}  // namespace fg
