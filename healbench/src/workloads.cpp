#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "cert/certificate.h"
#include "fg/core/structural_core.h"
#include "fg/dist/dist_forgiving_graph.h"
#include "fg/healer_service.h"
#include "fg/sharded_forest.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "harness/certificate.h"
#include "harness/metrics.h"
#include "loop.h"
#include "ops.h"
#include "snap/snapshot.h"
#include "spans.h"
#include "stats.h"

namespace healbench {

namespace {

using Clock = std::chrono::steady_clock;
using fg::ChurnOp;
using fg::NodeId;
using fg::VNodeId;
namespace core = fg::core;
namespace fs = std::filesystem;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Sources BFS'd by the stretch check.
constexpr int kStretchSources = 8;
/// Theorem 1.1's degree bound as EXPERIMENTS.md T1 checks it.
constexpr double kMaxDegreeRatio = 4.0;
/// Waves of the guardrail probe on workloads that sample no guardrails.
constexpr int kGuardProbeWaves = 4;

int ceil_log2(int64_t x) {
  int b = 0;
  while ((int64_t{1} << b) < x) ++b;
  return b;
}

/// Resident memory of the process now (VmRSS), in MB, after the allocator
/// has returned its free pages (malloc_trim): the live footprint, not what
/// the worker threads' arenas happen to retain.
double rss_mb() {
  malloc_trim(0);
  long pages = 0, resident = 0;
  std::ifstream("/proc/self/statm") >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

std::vector<uint8_t> base_bytes(const core::StructuralCore& c) {
  fg::snap::BaseImage img;
  c.to_base_image(&img);
  return fg::snap::encode_base(img);
}

uint32_t base_crc(const core::StructuralCore& c) { return fg::snap::crc32(base_bytes(c)); }

core::StructuralCore core_from_bytes(const std::vector<uint8_t>& bytes) {
  fg::snap::BaseImage img;
  std::string err;
  FG_CHECK_MSG(fg::snap::decode_base(bytes, &img, &err), "start image does not decode");
  core::StructuralCore out;
  FG_CHECK_MSG(core::StructuralCore::from_base_image(img, &out, &err), "start image does not load");
  return out;
}

// ---------------------------------------------------------------------------
// Systems under test, driven by run_loop.

class ServiceSut {
 public:
  explicit ServiceSut(fg::HealerService& s)
      : s_(s), waves0_(s.stats().waves), inserts0_(s.stats().inserts) {}
  void push(const ChurnOp& op) { s_.push(op); }
  void flush() { s_.flush(); }
  int64_t waves() const { return s_.stats().waves - waves0_; }
  int64_t inserts() const { return s_.stats().inserts - inserts0_; }
  int64_t waves_before() const { return waves0_; }

 private:
  fg::HealerService& s_;
  int64_t waves0_;
  int64_t inserts0_;
};

/// The dist engine has no serving loop of its own: inserts apply at once,
/// deletes collect into waves of wave_size healed by one delete_batch.
class DistSut {
 public:
  DistSut(fg::dist::DistForgivingGraph& d, int wave_size) : d_(d), wave_size_(wave_size) {}

  void push(const ChurnOp& op) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      d_.insert(op.neighbors);
      ++inserts_;
      return;
    }
    forming_.push_back(op.victim);
    if (static_cast<int>(forming_.size()) >= wave_size_) heal();
  }
  void flush() {
    if (!forming_.empty()) heal();
  }
  int64_t waves() const { return waves_; }
  int64_t inserts() const { return inserts_; }

  int64_t deletes = 0;
  int64_t rounds = 0;
  int64_t messages = 0;
  int64_t words = 0;
  int max_message_words = 0;
  int64_t max_node_round_words = 0;
  std::vector<double> wave_ms;

 private:
  void heal() {
    Clock::time_point t0 = Clock::now();
    d_.delete_batch(forming_);
    wave_ms.push_back(ms_since(t0));
    const fg::dist::RepairCost& c = d_.last_repair_cost();
    deletes += static_cast<int64_t>(forming_.size());
    rounds += c.rounds;
    messages += c.messages;
    words += c.words;
    max_message_words = std::max(max_message_words, c.max_message_words);
    max_node_round_words = std::max(max_node_round_words, c.max_node_round_words);
    forming_.clear();
    ++waves_;
  }

  fg::dist::DistForgivingGraph& d_;
  int wave_size_;
  std::vector<NodeId> forming_;
  int64_t waves_ = 0;
  int64_t inserts_ = 0;
};

/// The paper's protocol cost over a DistSut's waves.
struct DistCost {
  double rounds_per_wave = 0.0;
  double msgs_per_delete = 0.0;
  double words_per_delete = 0.0;
  double wave_p50_ms = 0.0;
  int max_message_words = 0;
  int64_t max_node_round_words = 0;
};

DistCost cost_of(const DistSut& d) {
  DistCost c;
  if (d.waves() > 0) c.rounds_per_wave = static_cast<double>(d.rounds) / static_cast<double>(d.waves());
  if (d.deletes > 0) {
    c.msgs_per_delete = static_cast<double>(d.messages) / static_cast<double>(d.deletes);
    c.words_per_delete = static_cast<double>(d.words) / static_cast<double>(d.deletes);
  }
  c.wave_p50_ms = median(d.wave_ms);
  c.max_message_words = d.max_message_words;
  c.max_node_round_words = d.max_node_round_words;
  return c;
}

void drive_all(DistSut& sut, const std::vector<ChurnOp>& ops) {
  for (const ChurnOp& op : ops) sut.push(op);
  sut.flush();
}

/// The protocol probe: the stream's first dist_probe_ops ops replayed
/// through the dist engine from the fresh substrate.
DistCost dist_probe(const fg::Graph& g0, const Workload& w, uint64_t seed,
                    fg::dist::MergeMode mode) {
  const std::vector<ChurnOp> ops = OpGenerator(w.nodes, seed).take(w.dist_probe_ops);
  fg::dist::DistForgivingGraph d(g0, mode);
  DistSut sut(d, w.wave_size);
  drive_all(sut, ops);
  return cost_of(sut);
}

// ---------------------------------------------------------------------------
// Set-up.

fg::HealerConfig service_config(const Workload& w, const std::string& snapshot_path) {
  fg::HealerConfig c;
  c.wave_size = w.wave_size;
  c.certify_every = w.certify_every;
  c.audit_every = w.audit_every;
  c.snapshot_every = w.snapshot_every;
  if (w.snapshot_every > 0) c.snapshot_path = snapshot_path;
  c.plan_workers = c.commit_workers = c.break_workers = bench_workers();
  return c;
}

struct Setup {
  std::unique_ptr<fg::Graph> g0;
  std::unique_ptr<OpGenerator> gen;
  std::unique_ptr<fg::HealerService> svc;
  std::unique_ptr<fg::dist::DistForgivingGraph> dist;
};

/// Substrate build plus engine construction, plus the aging churn.
Setup make_setup(const Workload& w, uint64_t seed, const std::string& snapshot_path,
                 bool with_service, bool with_dist) {
  Setup s;
  s.g0 = std::make_unique<fg::Graph>(make_substrate(w.nodes, seed));
  s.gen = std::make_unique<OpGenerator>(w.nodes, seed);
  if (with_service) {
    s.svc = std::make_unique<fg::HealerService>(*s.g0, service_config(w, snapshot_path));
    for (int64_t i = 0; i < w.aging_ops; ++i) s.svc->push(s.gen->next());
    s.svc->flush();
  }
  if (with_dist)
    s.dist = std::make_unique<fg::dist::DistForgivingGraph>(*s.g0, fg::dist::MergeMode::kStageWise);
  return s;
}

// ---------------------------------------------------------------------------
// Output checks shared by both runs.

void check_service_counters(const fg::HealerStats& st, RunResult* r) {
  r->check(st.dropped_deletes == 0, "dropped_deletes == 0");
  r->check(st.stale_replans == 0, "stale_replans == 0");
  r->check(st.cert_rejections == 0, "cert_rejections == 0");
  r->check(st.audit_violations == 0, "audit_violations == 0");
}

void check_final_state(const core::StructuralCore& c, uint64_t seed, RunResult* r) {
  fg::DegreeStats deg = fg::degree_stats(c.image(), c.gprime());
  r->check(deg.max_ratio <= kMaxDegreeRatio,
           "degree_stats max ratio " + std::to_string(deg.max_ratio) + " <= 4");
  fg::Rng rng(seed ^ 0xa5a5a5a5ULL);
  fg::StretchStats st = fg::sample_stretch(c.image(), c.gprime(), kStretchSources, rng);
  const int bound = ceil_log2(c.gprime().node_capacity());
  r->check(st.max_stretch <= bound,
           "sample_stretch max " + std::to_string(st.max_stretch) + " <= ceil(log2 n) = " +
               std::to_string(bound));
  r->check(st.broken_pairs == 0, "sample_stretch broken pairs == 0");
}

int64_t failed_ops(const fg::HealerStats& st, const LoopResult& lr, int wave_size) {
  return st.dropped_deletes + lr.incomplete +
         static_cast<int64_t>(wave_size) * (st.cert_rejections + (st.audit_violations > 0 ? 1 : 0));
}

// ---------------------------------------------------------------------------
// Restore.

struct RestoreTimes {
  double total_ms = 0.0;
  double read_ms = 0.0;
  double decode_ms = 0.0;
  double rebuild_ms = 0.0;
  double replay_ms = 0.0;
  int64_t tail_waves = 0;
};

/// One restore through the public split (snap::read_file, decode_base,
/// from_base_image, scan_log + apply_wave_delta), timed per call. Returns
/// the restored core's base-image bytes.
std::vector<uint8_t> restore_split(const std::string& base, const std::string& log,
                                   RestoreTimes* t, bool* ok) {
  std::string err;
  Clock::time_point t0 = Clock::now();
  std::vector<uint8_t> base_raw, log_raw;
  bool good = fg::snap::read_file(base, &base_raw, &err);
  const bool have_log = fs::exists(log);
  if (good && have_log) good = fg::snap::read_file(log, &log_raw, &err);
  t->read_ms = ms_since(t0);
  t0 = Clock::now();
  fg::snap::BaseImage img;
  good = good && fg::snap::decode_base(base_raw, &img, &err);
  t->decode_ms = ms_since(t0);
  t0 = Clock::now();
  core::StructuralCore c;
  good = good && core::StructuralCore::from_base_image(img, &c, &err);
  t->rebuild_ms = ms_since(t0);
  t0 = Clock::now();
  t->tail_waves = 0;
  if (good && have_log) {
    fg::snap::LogScan scan;
    good = fg::snap::scan_log(log_raw, &scan, &err) && !scan.truncated;
    for (const fg::snap::WaveDelta& d : scan.deltas) {
      if (!good) break;
      if (d.wave <= img.wave) continue;  // already covered by the base
      good = c.apply_wave_delta(d, &err);
      ++t->tail_waves;
    }
  }
  t->replay_ms = ms_since(t0);
  t->total_ms = t->read_ms + t->decode_ms + t->rebuild_ms + t->replay_ms;
  *ok = good;
  return good ? base_bytes(c) : std::vector<uint8_t>{};
}

double file_mb(const std::string& path) {
  std::error_code ec;
  auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n) / 1e6;
}

// ---------------------------------------------------------------------------
// Replays (traced run). Run state is a pure function of the op stream
// (contract C4), so every replay of the same stream from the same start
// state must land on the service's bytes.

/// Forwards the snapshot callbacks to the writer, timing each.
class TimedRecorder final : public core::DeltaRecorder {
 public:
  explicit TimedRecorder(fg::SnapshotWriter& w) : w_(w) {}
  void on_insert(NodeId id, std::span<const NodeId> neighbors) override {
    Clock::time_point t0 = Clock::now();
    w_.on_insert(id, neighbors);
    ns += (Clock::now() - t0).count();
  }
  void on_image_touch(NodeId u, NodeId v) override {
    Clock::time_point t0 = Clock::now();
    w_.on_image_touch(u, v);
    ns += (Clock::now() - t0).count();
  }
  void on_wave_committed(const core::StructuralCore& c, const core::RepairPlan& plan) override {
    Clock::time_point t0 = Clock::now();
    w_.on_wave_committed(c, plan);
    ns += (Clock::now() - t0).count();
  }
  int64_t ns = 0;

 private:
  fg::SnapshotWriter& w_;
};

struct Guards {
  int certify_every = 0;
  int audit_every = 0;
  std::string snapshot_path;  ///< Non-empty: record snapshots here.
  int snapshot_every = 0;     ///< Base rotation period (0: never rotate).
};

struct ReplayStats {
  double elapsed_ms = 0.0;
  int64_t waves = 0;
  int64_t inserts = 0;
  // Per-wave sums.
  double partition_ms = 0.0, collect_ms = 0.0, merge_plan_ms = 0.0;
  int64_t regions = 0, affected_rts = 0, pieces = 0, rt_leaves = 0;
  int64_t teardowns = 0, helpers_created = 0;
  // Guardrails.
  int64_t certs = 0, cert_bytes = 0, cert_rejections = 0;
  int64_t audits = 0, audit_violations = 0;
  int64_t record_ns = 0, deltas = 0, delta_bytes = 0;
  int64_t bases = 0;
  double base_ms = 0.0;
  bool snapshot_ok = true;
};

/// The service's per-wave calls, one by one, at 1 worker with recorded
/// effects: StructuralCore::insert_node, ShardedForest::plan, the break
/// and merge primitives with their stitches, note_commit, then the
/// guardrails the workload samples. Every call sits in its own span.
class Replayer {
 public:
  Replayer(core::StructuralCore& c, int wave_size, const Guards& g, SpanLog& log)
      : c_(c), wave_size_(wave_size), g_(g), log_(log) {}

  ReplayStats run(const std::vector<ChurnOp>& ops) {
    std::unique_ptr<fg::SnapshotWriter> writer;
    std::unique_ptr<TimedRecorder> timed;
    if (!g_.snapshot_path.empty()) {
      writer = std::make_unique<fg::SnapshotWriter>(g_.snapshot_path + ".base",
                                                    g_.snapshot_path + ".log", g_.snapshot_every);
      std::string err;
      Clock::time_point t0 = Clock::now();
      st_.snapshot_ok = writer->begin(c_, 0, 0, &err);
      st_.base_ms += ms_since(t0);
      ++st_.bases;
      timed = std::make_unique<TimedRecorder>(*writer);
      c_.set_delta_recorder(timed.get());
    }
    writer_ = writer.get();
    Clock::time_point t0 = Clock::now();
    std::vector<NodeId> forming;
    for (const ChurnOp& op : ops) {
      if (op.kind == ChurnOp::Kind::kInsert) {
        SpanLog::Scope s(log_, "insert");
        c_.insert_node(op.neighbors);
        ++st_.inserts;
        continue;
      }
      forming.push_back(op.victim);
      if (static_cast<int>(forming.size()) >= wave_size_) {
        wave(forming);
        forming.clear();
      }
    }
    if (!forming.empty()) wave(forming);
    st_.elapsed_ms = ms_since(t0);
    if (timed) {
      st_.record_ns = timed->ns;
      c_.set_delta_recorder(nullptr);
    }
    writer_ = nullptr;
    return st_;
  }

 private:
  void wave(const std::vector<NodeId>& victims) {
    const int64_t id = st_.waves++;
    const bool certify = g_.certify_every > 0 && id % g_.certify_every == 0;
    const bool audit = g_.audit_every > 0 && id % g_.audit_every == 0;
    std::optional<fg::cert::WaveCertificate> cert;
    {
      SpanLog::Scope wave_span(log_, "wave", id);
      core::RepairPlan plan;
      {
        SpanLog::Scope s(log_, "plan", id);
        plan = sf_.plan(c_, victims);
      }
      const size_t regions = plan.regions.size();
      fg::harness::CertificateBuilder builder;
      if (certify) {
        SpanLog::Scope s(log_, "cert.begin", id);
        builder.begin_wave(c_, plan);
      }
      if (break_fx_.size() < regions) break_fx_.resize(regions);
      if (merge_fx_.size() < regions) merge_fx_.resize(regions);
      std::vector<std::vector<VNodeId>> pieces(regions);
      {
        SpanLog::Scope s(log_, "break", id);
        c_.begin_break(plan);
        for (size_t r = 0; r < regions; ++r)
          pieces[r] = c_.break_region(plan.regions[r], &break_fx_[r]);
      }
      {
        SpanLog::Scope s(log_, "break.stitch", id);
        for (size_t r = 0; r < regions; ++r) c_.apply_break_effects(plan.regions[r], break_fx_[r]);
        c_.finish_break(plan);
      }
      {
        SpanLog::Scope s(log_, "merge", id);
        for (size_t r = 0; r < regions; ++r)
          c_.merge_region(plan.regions[r], std::move(pieces[r]), &merge_fx_[r]);
      }
      std::vector<VNodeId> roots(regions, fg::kNoVNode);
      {
        SpanLog::Scope s(log_, "merge.stitch", id);
        for (size_t r = 0; r < regions; ++r) roots[r] = c_.apply_merge_effects(merge_fx_[r]);
        c_.check_reservation_settled(plan);
        sf_.note_commit(plan, roots);
      }
      if (writer_ != nullptr) {
        const uintmax_t before = log_size();
        {
          SpanLog::Scope s(log_, "snapshot.emit", id);
          c_.delta_recorder()->on_wave_committed(c_, plan);
        }
        const uintmax_t after = log_size();
        if (after > before) {
          st_.delta_bytes += static_cast<int64_t>(after - before);
          ++st_.deltas;
        }
      }
      if (certify) {
        {
          SpanLog::Scope s(log_, "cert.emit", id);
          cert = builder.end_wave(c_, plan, static_cast<long>(st_.certs), roots, nullptr);
        }
        SpanLog::Scope s(log_, "cert.check", id);
        if (!fg::cert::check(*cert).ok) ++st_.cert_rejections;
      }
      if (audit) {
        SpanLog::Scope s(log_, "audit", id);
        fg::AuditReport report = fg::audit(c_);
        st_.audit_violations += report.total;
        ++st_.audits;
      }
      if (writer_ != nullptr) {
        uintmax_t before = log_size();
        Clock::time_point t0 = Clock::now();
        {
          SpanLog::Scope s(log_, "snapshot.maintain", id);
          st_.snapshot_ok = writer_->maintain(c_) && st_.snapshot_ok;
        }
        if (log_size() < before) {
          st_.base_ms += ms_since(t0);
          ++st_.bases;
        }
      }
      const fg::RepairStats& rs = c_.last_repair();
      st_.partition_ms += plan.profile.partition_ms;
      st_.collect_ms += plan.profile.collect_ms;
      st_.merge_plan_ms += plan.profile.merge_ms;
      st_.regions += rs.regions;
      st_.affected_rts += rs.affected_rts;
      st_.pieces += rs.pieces;
      st_.rt_leaves += rs.final_rt_leaves;
      st_.helpers_created += rs.helpers_created;
      for (size_t r = 0; r < regions; ++r) st_.teardowns += break_fx_[r].teardowns;
    }
    if (cert) {
      std::ostringstream os;
      cert->save(os);
      st_.cert_bytes += static_cast<int64_t>(os.str().size());
      ++st_.certs;
    }
  }

  uintmax_t log_size() const {
    std::error_code ec;
    uintmax_t n = fs::file_size(g_.snapshot_path + ".log", ec);
    return ec ? 0 : n;
  }

  core::StructuralCore& c_;
  int wave_size_;
  Guards g_;
  SpanLog& log_;
  fg::ShardedForest sf_;
  fg::SnapshotWriter* writer_ = nullptr;
  std::vector<core::StructuralCore::BreakEffects> break_fx_;
  std::vector<core::StructuralCore::MergeEffects> merge_fx_;
  ReplayStats st_;
};

/// The fan-out replay: ShardedForest::plan and ::execute at `workers`,
/// timing only those two calls.
struct FanoutTimes {
  double plan_ms = 0.0;
  double execute_ms = 0.0;
};

FanoutTimes replay_fanout(core::StructuralCore& c, const std::vector<ChurnOp>& ops,
                          int wave_size, int workers) {
  fg::ShardedForest sf;
  sf.set_workers(workers);
  sf.set_commit_workers(workers);
  sf.set_break_workers(workers);
  FanoutTimes t;
  std::vector<NodeId> forming;
  auto wave = [&] {
    Clock::time_point t0 = Clock::now();
    core::RepairPlan plan = sf.plan(c, forming);
    t.plan_ms += ms_since(t0);
    t0 = Clock::now();
    sf.execute(c, plan);
    t.execute_ms += ms_since(t0);
    forming.clear();
  };
  for (const ChurnOp& op : ops) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      c.insert_node(op.neighbors);
      continue;
    }
    forming.push_back(op.victim);
    if (static_cast<int>(forming.size()) >= wave_size) wave();
  }
  if (!forming.empty()) wave();
  return t;
}

LoopConfig loop_config(const Workload& w, double seconds) {
  LoopConfig lc;
  lc.open = w.open;
  lc.rate = w.rate;
  lc.seconds = seconds;
  lc.ops = static_cast<int64_t>(std::llround(w.closed_rate * seconds));
  // A guarded run ends half-way through a snapshot rotation, so restore
  // always replays the same length of log tail.
  if (w.snapshot_every > 0) {
    lc.stop_every = w.snapshot_every;
    lc.stop_at = w.snapshot_every / 2;
  }
  lc.wave_size = w.wave_size;
  return lc;
}

double per(double total, int64_t n) { return n > 0 ? total / static_cast<double>(n) : 0.0; }

/// Trial k of a run serves the stream of its own seed (trial 0: the run's
/// seed), so a run averages over several streams: at equal host speed, one
/// seed's inserts on dist_stagewise took 35% longer than another's.
uint64_t trial_seed(uint64_t seed, int k) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(k);
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload table.

int bench_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"aged_open", "fresh_bigwave", "guarded",
                                                 "dist_stagewise"};
  return names;
}

bool find_workload(const std::string& name, Scale scale, Workload* out) {
  const bool full = scale == Scale::kFull;
  Workload w;
  w.name = name;
  w.nodes = full ? 1 << 16 : 1 << 10;
  w.dist_probe_ops = full ? 16'384 : 512;
  if (name == "aged_open") {
    w.aging_ops = full ? 100'000 : 2'000;
    w.open = true;
    w.rate = full ? 6000.0 : 4000.0;
    w.tail_pct = full ? 97.0 : 50.0;
  } else if (name == "fresh_bigwave") {
    w.wave_size = full ? 1024 : 64;
    w.tail_pct = full ? 96.0 : 50.0;
    w.closed_rate = full ? 60'000 : 8'000;
    w.dist_probe_ops = full ? 65'536 : 512;
  } else if (name == "guarded") {
    w.certify_every = full ? 64 : 4;
    w.audit_every = full ? 128 : 8;
    w.snapshot_every = full ? 64 : 4;
    w.tail_pct = full ? 99.0 : 50.0;
    w.closed_rate = full ? 20'000 : 2'000;
    w.trials = 5;
  } else if (name == "dist_stagewise") {
    w.nodes = full ? 1 << 14 : 1 << 10;
    w.dist = true;
    // p95, not the p99 the tail rule allows: a wave here is one synchronous
    // delete_batch of a few ms, so its p99 rests on the few waves a
    // transient host stall hits and flipped between ~11 and ~20 ms from
    // run to run.
    w.tail_pct = full ? 95.0 : 50.0;
    w.closed_rate = full ? 25'000 : 4'000;
    w.trials = 5;
  } else {
    return false;
  }
  if (!full) {
    w.wave_size = std::min(w.wave_size, 16);
    w.trials = 2;
    w.restores = 2;
  }
  *out = w;
  return true;
}

const std::vector<std::string>& e2e_metric_names() {
  static const std::vector<std::string> names = {
      "setup_s",     "ops_per_s",       "heal_p50_ms",     "heal_tail_ms",
      "join_p50_ms", "join_tail_ms",    "restore_ms",      "snapshot_mb",
      "rss_mb",      "rounds_per_wave", "msgs_per_delete", "words_per_delete"};
  return names;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "svc.wave_p50_ms",       "svc.plan_p50_ms",          "svc.wait_p50_ms",
      "svc.overhead_share",    "gen.late_p99_ms",          "gen.backlog_max_ops",
      "plan.partition_ms",     "plan.collect_ms",          "plan.merge_plan_ms",
      "plan.regions",          "plan.affected_rts",        "plan.pieces",
      "plan.rt_leaves",        "break.ms",                 "break.stitch_ms",
      "merge.ms",              "merge.stitch_ms",          "break.teardowns",
      "merge.helpers_created", "fanout.plan_speedup",      "fanout.commit_speedup",
      "insert.us",             "cert.emit_ms",             "cert.check_ms",
      "cert.bytes",            "audit.ms",                 "snapshot.record_us",
      "snapshot.delta_bytes",  "snapshot.base_ms",         "restore.read_ms",
      "restore.decode_ms",     "restore.rebuild_ms",       "restore.replay_ms",
      "restore.tail_waves",    "dist.wave_ms",             "dist.max_message_words",
      "dist.max_node_round_words", "dist.global.rounds_per_wave",
      "dist.global.msgs_per_delete", "dist.global.words_per_delete",
      "trace.overhead_share",  "trace.phase_sum_share"};
  return names;
}

// ---------------------------------------------------------------------------
// End-to-end run.

RunResult run_e2e(const RunOptions& opt) {
  const Workload& w = opt.workload;
  RunResult r;
  fs::create_directories(opt.work_dir);
  const std::string snap_path = opt.work_dir + "/svc";

  // Trials: each sets up from scratch (timed: setup_s), serves its stream
  // and restores its final state. Latency and restore samples pool over
  // the trials, so a run samples the host at several moments.
  const LoopConfig lc = loop_config(w, opt.seconds / w.trials);
  std::vector<double> setup_s;
  std::vector<LoopResult> runs;
  Setup s;
  DistCost proto;
  std::vector<double> resident_mb;
  double checks_s = 0.0;
  const std::string base = snap_path + ".base", log = snap_path + ".log";
  std::vector<double> restore_ms;
  double snapshot_mb = 0.0;
  uint64_t seed = opt.seed;
  for (int k = 0; k < w.trials; ++k) {
    s = Setup{};
    fs::remove(base);
    fs::remove(log);
    seed = trial_seed(opt.seed, k);
    Clock::time_point t0 = Clock::now();
    s = make_setup(w, seed, snap_path, !w.dist, w.dist);
    setup_s.push_back(ms_since(t0) / 1000.0);

    auto next = [&] { return s.gen->next(); };
    LoopResult lr;
    if (w.dist) {
      DistSut dsut(*s.dist, w.wave_size);
      lr = run_loop(dsut, next, lc);
      proto = cost_of(dsut);
      r.failed += lr.incomplete;
    } else {
      ServiceSut sut(*s.svc);
      lr = run_loop(sut, next, lc);
      check_service_counters(s.svc->stats(), &r);
      r.failed += failed_ops(s.svc->stats(), lr, w.wave_size);
    }
    // The workload's footprint: resident memory once the trial has served,
    // before its checks and restores. Not the high-water mark: the old + new
    // buffers of the last reallocation set that, so it jumps by whole
    // buffers from seed to seed; the median over the trials' streams smooths
    // where the footprint's own containers happen to double.
    resident_mb.push_back(rss_mb());
    r.attempted += lr.attempted;
    r.check(lr.incomplete == 0, "every op completed");
    r.check(lr.sustainable, "open loop sustainable (last-quarter lateness " +
                                std::to_string(lr.late_last_q_ms) + " ms vs first quarter " +
                                std::to_string(lr.late_first_q_ms) + " ms)");
    const core::StructuralCore& final_core = w.dist ? s.dist->core() : s.svc->engine().core();
    Clock::time_point t_checks = Clock::now();
    check_final_state(final_core, seed, &r);
    const std::vector<uint8_t> expect = base_bytes(final_core);
    checks_s += ms_since(t_checks) / 1000.0;
    runs.push_back(std::move(lr));

    // Restore: the service's own base + log (guarded), or the final state
    // written as a base image. Every restore must land on the served state.
    if (w.snapshot_every == 0) {
      std::string err;
      r.check(fg::snap::write_file_atomic(base, expect, &err), "write final base: " + err);
      fs::remove(log);
    }
    for (int j = 0; j < w.restores; ++j) {
      Clock::time_point t0 = Clock::now();
      core::StructuralCore c;
      fg::SnapshotRestore rest = fg::restore_snapshot(base, log, &c);
      restore_ms.push_back(ms_since(t0));
      r.check(rest.ok && !rest.truncated, "restore_snapshot ok: " + rest.error);
      if (w.snapshot_every > 0)
        r.check(static_cast<int64_t>(rest.waves) == s.svc->stats().waves,
                "restore reflects every committed wave");
      r.check(base_bytes(c) == expect, "restore lands on the served state's base-image bytes");
    }
    snapshot_mb = file_mb(base) + file_mb(log);
  }
  LoopResult lr;  // the pooled trials
  for (const LoopResult& t : runs) {
    lr.attempted += t.attempted;
    lr.window_s += t.window_s;
    lr.heal_ms.insert(lr.heal_ms.end(), t.heal_ms.begin(), t.heal_ms.end());
    lr.join_ms.insert(lr.join_ms.end(), t.join_ms.begin(), t.join_ms.end());
  }
  r.check(tail_ok(static_cast<int64_t>(lr.heal_ms.size()), w.tail_pct),
          "tail rule: " + std::to_string(lr.heal_ms.size()) + " waves carry p" +
              std::to_string(w.tail_pct));
  {
    std::ostringstream t;
    t << "trials";
    for (const LoopResult& x : runs)
      t << " " << x.attempted / x.window_s << "/" << median(x.heal_ms) << "/"
        << percentile(x.heal_ms, w.tail_pct) << "/" << median(x.join_ms) << "/"
        << percentile(x.join_ms, w.tail_pct) << "/" << x.busy_ms << "/"
        << x.late_first_q_ms << "/" << x.late_last_q_ms;
    t << " (ops/s, heal p50, heal tail, join p50, join tail, busy ms, median lateness"
         " first/last quarter ms)";
    r.notes.push_back(t.str());
  }
  // The paper's protocol cost: the dist workload's own waves, or the
  // protocol probe; both on the last trial's stream.
  s.svc.reset();
  s.dist.reset();
  Clock::time_point t_probe = Clock::now();
  if (!w.dist) proto = dist_probe(*s.g0, w, seed, fg::dist::MergeMode::kStageWise);
  const double probe_s = ms_since(t_probe) / 1000.0;
  r.add("setup_s", median(setup_s), "s");
  r.add("ops_per_s", static_cast<double>(lr.attempted) / lr.window_s, "1/s");
  r.add("heal_p50_ms", median(lr.heal_ms), "ms");
  r.add("heal_tail_ms", percentile(lr.heal_ms, w.tail_pct), "ms");
  r.add("join_p50_ms", median(lr.join_ms), "ms");
  r.add("join_tail_ms", percentile(lr.join_ms, w.tail_pct), "ms");
  r.add("restore_ms", median(restore_ms), "ms");
  r.add("snapshot_mb", snapshot_mb, "MB");
  r.add("rss_mb", median(resident_mb), "MB");
  r.add("rounds_per_wave", proto.rounds_per_wave, "rounds/wave");
  r.add("msgs_per_delete", proto.msgs_per_delete, "msgs/delete");
  r.add("words_per_delete", proto.words_per_delete, "words/delete");

  std::ostringstream note;
  note << "waves " << lr.heal_ms.size() << ", joins " << lr.join_ms.size() << ", ops "
       << lr.attempted << ", window " << lr.window_s << " s, tail p" << w.tail_pct
       << "; untimed checks "
       << checks_s << " s, protocol probe " << probe_s << " s";
  r.notes.push_back(note.str());
  s = Setup{};
  fs::remove_all(opt.work_dir);
  return r;
}

// ---------------------------------------------------------------------------
// Traced run.

RunResult run_traced(const RunOptions& opt) {
  const Workload& w = opt.workload;
  RunResult r;
  fs::create_directories(opt.work_dir);
  fs::create_directories(opt.out_dir);
  const std::string svc_snap = opt.work_dir + "/svc";

  // 1. Set-up once; keep the start state every replay starts from.
  Setup s = make_setup(w, opt.seed, svc_snap, /*with_service=*/true, w.dist);
  const std::vector<uint8_t> start = base_bytes(s.svc->engine().core());

  // 2. The service phase: one trial of the workload (its loop and stream).
  OpGenerator& gen = *s.gen;
  LoopConfig lc = loop_config(w, opt.seconds / w.trials);
  std::vector<ChurnOp> stream;
  auto next = [&] {
    stream.push_back(gen.next());
    return stream.back();
  };
  ServiceSut sut(*s.svc);
  LoopResult lr = run_loop(sut, next, lc);
  const fg::HealerStats& st = s.svc->stats();
  check_service_counters(st, &r);
  r.check(lr.incomplete == 0, "every op completed");
  r.check(lr.sustainable, "open loop sustainable");
  r.attempted = lr.attempted;
  r.failed = failed_ops(st, lr, w.wave_size);
  r.service_crc = base_crc(s.svc->engine().core());

  // The service's per-wave records cover the aging waves too; keep the
  // loop's own.
  const size_t w0 = static_cast<size_t>(sut.waves_before());
  auto since_w0 = [w0](const std::vector<double>& v) {
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(std::min(w0, v.size())), v.end());
  };
  const std::vector<double> svc_wave = since_w0(st.wave_ms);
  const std::vector<double> svc_plan = since_w0(st.plan_ms);
  std::vector<double> wait_ms;
  for (size_t i = 0; i < lr.heal_ms.size() && i < svc_wave.size(); ++i)
    wait_ms.push_back(lr.heal_ms[i] - svc_wave[i]);

  // The dist engine on the same stream (dist workload), both merge modes.
  std::unique_ptr<DistSut> dstage, dglobal;
  std::unique_ptr<fg::dist::DistForgivingGraph> dglobal_engine;
  if (w.dist) {
    dstage = std::make_unique<DistSut>(*s.dist, w.wave_size);
    drive_all(*dstage, stream);
    check_final_state(s.dist->core(), opt.seed, &r);
    dglobal_engine = std::make_unique<fg::dist::DistForgivingGraph>(*s.g0, fg::dist::MergeMode::kGlobalPlan);
    dglobal = std::make_unique<DistSut>(*dglobal_engine, w.wave_size);
    drive_all(*dglobal, stream);
    r.check(base_crc(dglobal_engine->core()) == r.service_crc,
            "C4: dist kGlobalPlan digest == service digest");
  }
  check_final_state(s.svc->engine().core(), opt.seed, &r);
  const double svc_busy_ms = lr.busy_ms;
  s.svc.reset();

  // 3. Replays of the same stream from the same start state.
  Guards guards;
  guards.certify_every = w.certify_every;
  guards.audit_every = w.audit_every;
  guards.snapshot_every = w.snapshot_every;
  if (w.snapshot_every > 0) guards.snapshot_path = opt.work_dir + "/replay";

  SpanLog traced(true);
  core::StructuralCore traced_core = core_from_bytes(start);
  ReplayStats ts = Replayer(traced_core, w.wave_size, guards, traced).run(stream);
  r.replay_crcs.push_back(base_crc(traced_core));

  SpanLog off(false);
  Guards off_guards = guards;
  if (w.snapshot_every > 0) off_guards.snapshot_path = opt.work_dir + "/replay_off";
  core::StructuralCore off_core = core_from_bytes(start);
  ReplayStats us = Replayer(off_core, w.wave_size, off_guards, off).run(stream);
  r.replay_crcs.push_back(base_crc(off_core));
  off_core = core::StructuralCore();

  const int workers = bench_workers();
  core::StructuralCore f1_core = core_from_bytes(start);
  FanoutTimes f1 = replay_fanout(f1_core, stream, w.wave_size, 1);
  r.replay_crcs.push_back(base_crc(f1_core));
  f1_core = core::StructuralCore();
  core::StructuralCore fn_core = core_from_bytes(start);
  FanoutTimes fn = replay_fanout(fn_core, stream, w.wave_size, workers);
  r.replay_crcs.push_back(base_crc(fn_core));
  fn_core = core::StructuralCore();
  for (uint32_t crc : r.replay_crcs)
    r.check(crc == r.service_crc, "C4: replay digest == service digest");
  r.check(ts.cert_rejections == 0 && ts.audit_violations == 0 && ts.snapshot_ok,
          "replay guardrails clean");

  // 4. Guardrail probe on unguarded workloads: the next few waves of the
  // stream, every one certified, audited and recorded, on the traced
  // replay's final state.
  SpanLog probe_log(true);
  ReplayStats gs = ts;
  const SpanLog* guard_log = &traced;
  std::string guard_snap = guards.snapshot_path;
  if (w.certify_every == 0) {
    Guards pg;
    pg.certify_every = 1;
    pg.audit_every = 1;
    pg.snapshot_path = opt.work_dir + "/probe";
    std::vector<ChurnOp> more;
    int64_t deletes = 0;
    while (deletes < int64_t{kGuardProbeWaves} * w.wave_size) {
      more.push_back(gen.next());
      if (more.back().kind == ChurnOp::Kind::kDelete) ++deletes;
    }
    gs = Replayer(traced_core, w.wave_size, pg, probe_log).run(more);
    guard_log = &probe_log;
    guard_snap = pg.snapshot_path;
    r.check(gs.cert_rejections == 0 && gs.audit_violations == 0 && gs.snapshot_ok,
            "guardrail probe clean");
  }
  // Both streams end on a wave's closing delete, so the files hold the
  // replay's final state exactly.
  const std::vector<uint8_t> replay_final = base_bytes(traced_core);
  traced_core = core::StructuralCore();

  // 5. Restore split on the snapshot files the guardrail replay wrote.
  std::vector<RestoreTimes> rts;
  for (int k = 0; k < w.restores; ++k) {
    RestoreTimes t;
    bool ok = false;
    std::vector<uint8_t> got = restore_split(guard_snap + ".base", guard_snap + ".log", &t, &ok);
    r.check(ok, "restore split succeeds");
    r.check(got == replay_final, "restore split lands on the replay's final bytes");
    rts.push_back(t);
  }
  auto rt_median = [&](double RestoreTimes::*f) {
    std::vector<double> v;
    for (const RestoreTimes& t : rts) v.push_back(t.*f);
    return median(v);
  };

  // 6. Dist metrics: the dist workload's own runs, or the protocol probe.
  const DistCost stage = w.dist ? cost_of(*dstage)
                                : dist_probe(*s.g0, w, opt.seed, fg::dist::MergeMode::kStageWise);
  const DistCost global = w.dist ? cost_of(*dglobal)
                                 : dist_probe(*s.g0, w, opt.seed, fg::dist::MergeMode::kGlobalPlan);

  // 7. Summary.
  std::vector<double> per_wave_share;
  const double phase_share = traced.phase_sum_share("wave", &per_wave_share);
  r.check(std::abs(1.0 - phase_share) <= 0.05,
          "phase spans sum to the traced wave time within 5% (share " +
              std::to_string(phase_share) + ")");
  r.check(std::abs(1.0 - median(per_wave_share)) <= 0.05,
          "median per-wave phase share within 5%");
  std::map<std::string, double> tot = traced.total_ms();
  std::map<std::string, double> gtot = guard_log->total_ms();
  const double trace_overhead = (ts.elapsed_ms - us.elapsed_ms) / us.elapsed_ms;
  const double svc_overhead = (svc_busy_ms - us.elapsed_ms) / us.elapsed_ms;

  r.add("svc.wave_p50_ms", median(svc_wave), "ms");
  r.add("svc.plan_p50_ms", median(svc_plan), "ms");
  r.add("svc.wait_p50_ms", median(wait_ms), "ms");
  r.add("svc.overhead_share", svc_overhead, "share");
  r.add("gen.late_p99_ms", percentile(lr.late_ms, 99.0), "ms");
  r.add("gen.backlog_max_ops", static_cast<double>(lr.backlog_max), "ops");
  r.add("plan.partition_ms", per(ts.partition_ms, ts.waves), "ms");
  r.add("plan.collect_ms", per(ts.collect_ms, ts.waves), "ms");
  r.add("plan.merge_plan_ms", per(ts.merge_plan_ms, ts.waves), "ms");
  r.add("plan.regions", per(static_cast<double>(ts.regions), ts.waves), "count");
  r.add("plan.affected_rts", per(static_cast<double>(ts.affected_rts), ts.waves), "count");
  r.add("plan.pieces", per(static_cast<double>(ts.pieces), ts.waves), "count");
  r.add("plan.rt_leaves", per(static_cast<double>(ts.rt_leaves), ts.waves), "count");
  r.add("break.ms", per(tot["break"], ts.waves), "ms");
  r.add("break.stitch_ms", per(tot["break.stitch"], ts.waves), "ms");
  r.add("merge.ms", per(tot["merge"], ts.waves), "ms");
  r.add("merge.stitch_ms", per(tot["merge.stitch"], ts.waves), "ms");
  r.add("break.teardowns", per(static_cast<double>(ts.teardowns), ts.waves), "count");
  r.add("merge.helpers_created", per(static_cast<double>(ts.helpers_created), ts.waves), "count");
  r.add("fanout.plan_speedup", f1.plan_ms / fn.plan_ms, "x");
  r.add("fanout.commit_speedup", f1.execute_ms / fn.execute_ms, "x");
  r.add("insert.us", 1000.0 * per(tot["insert"], ts.inserts), "us");
  r.add("cert.emit_ms", per(gtot["cert.begin"] + gtot["cert.emit"], gs.certs), "ms");
  r.add("cert.check_ms", per(gtot["cert.check"], gs.certs), "ms");
  r.add("cert.bytes", per(static_cast<double>(gs.cert_bytes), gs.certs), "bytes");
  r.add("audit.ms", per(gtot["audit"], gs.audits), "ms");
  r.add("snapshot.record_us", per(static_cast<double>(gs.record_ns) / 1000.0, gs.waves), "us");
  r.add("snapshot.delta_bytes", per(static_cast<double>(gs.delta_bytes), gs.deltas), "bytes");
  r.add("snapshot.base_ms", per(gs.base_ms, gs.bases), "ms");
  r.add("restore.read_ms", rt_median(&RestoreTimes::read_ms), "ms");
  r.add("restore.decode_ms", rt_median(&RestoreTimes::decode_ms), "ms");
  r.add("restore.rebuild_ms", rt_median(&RestoreTimes::rebuild_ms), "ms");
  r.add("restore.replay_ms", rt_median(&RestoreTimes::replay_ms), "ms");
  r.add("restore.tail_waves", static_cast<double>(rts.front().tail_waves), "waves");
  r.add("dist.wave_ms", stage.wave_p50_ms, "ms");
  r.add("dist.max_message_words", stage.max_message_words, "words");
  r.add("dist.max_node_round_words", static_cast<double>(stage.max_node_round_words), "words");
  r.add("dist.global.rounds_per_wave", global.rounds_per_wave, "rounds/wave");
  r.add("dist.global.msgs_per_delete", global.msgs_per_delete, "msgs/delete");
  r.add("dist.global.words_per_delete", global.words_per_delete, "words/delete");
  r.add("trace.overhead_share", trace_overhead, "share");
  r.add("trace.phase_sum_share", phase_share, "share");

  // Ranked self time, written with the spans.
  const std::string stem = opt.out_dir + "/" + w.name + "-seed" + std::to_string(opt.seed);
  {
    std::ofstream os(stem + "-spans.jsonl");
    traced.write_jsonl(os);
  }
  {
    std::ofstream os(stem + "-summary.json");
    os << "{\"workload\":\"" << w.name << "\",\"seed\":" << opt.seed
       << ",\"replay_ms\":{\"traced\":" << ts.elapsed_ms << ",\"untraced\":" << us.elapsed_ms
       << ",\"service_busy\":" << svc_busy_ms << "},\"phase_sum_share\":" << phase_share
       << ",\"self_ms\":[";
    bool first = true;
    for (const auto& [name, ms] : traced.ranked_self_ms()) {
      os << (first ? "" : ",") << "[\"" << name << "\"," << ms << "]";
      first = false;
    }
    os << "]}\n";
  }
  std::ostringstream note;
  note << "self time (traced replay, " << ts.waves << " waves):";
  for (const auto& [name, ms] : traced.ranked_self_ms()) note << " " << name << "=" << ms << "ms";
  r.notes.push_back(note.str());
  r.notes.push_back("spans: " + stem + "-spans.jsonl");
  fs::remove_all(opt.work_dir);
  return r;
}

}  // namespace healbench
