// The healer-service battery: contract C4 extended to the serving loop.
//
// The service at any worker count must be an exact refinement of the
// wave-at-a-time engine: the same seeded churn stream replayed straight
// into ForgivingGraph::delete_batch, one wave of `wave_size` live victims
// at a time, produces byte-identical engine checkpoints AND byte-identical
// sampled-certificate streams, because worker counts are pure scheduling
// choices — the op stream alone decides what commits. On top of that, the
// epoch-gated admission path is driven through its test seam: a mutation
// landing between snapshot and commit must be detected and re-planned,
// never committed — the core's FG_CHECK death is the wall the gate keeps
// the service from hitting. Bad client ops get a typed rejection, never an
// abort, and the counters heal/join latency is measured by are up to date
// when push() returns.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "cert/certificate.h"
#include "fg/healer_service.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "harness/certificate.h"
#include "util/rng.h"

namespace fg {
namespace {

std::string checkpoint(const ForgivingGraph& fg) {
  std::stringstream ss;
  fg.save(ss);
  return ss.str();
}

/// Seeded mixed churn stream over a pool mirror (the bench driver's scheme
/// in miniature): every delete victim leaves the pool when generated and
/// every insert's future id joins it, so the stream is valid by
/// construction and fully determined by (n, ops, seed).
std::vector<ChurnOp> make_stream(int n, int ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> pool(static_cast<size_t>(n));
  std::iota(pool.begin(), pool.end(), NodeId{0});
  NodeId next_id = static_cast<NodeId>(n);

  std::vector<ChurnOp> stream;
  stream.reserve(static_cast<size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    if (pool.size() > 16 && rng.next_bool(0.5)) {
      size_t j = static_cast<size_t>(rng.next_below(pool.size()));
      NodeId victim = pool[j];
      pool[j] = pool.back();
      pool.pop_back();
      stream.push_back(ChurnOp::Delete(victim));
    } else {
      NodeId a = rng.pick(pool);
      NodeId b = a;
      while (b == a) b = rng.pick(pool);
      stream.push_back(ChurnOp::Insert({a, b}));
      pool.push_back(next_id++);
    }
  }
  return stream;
}

struct ServiceRun {
  std::string checkpoint;
  std::string cert_bytes;
  HealerStats stats;
};

ServiceRun run_service(const Graph& g0, const std::vector<ChurnOp>& ops,
                       HealerConfig config,
                       core::RegionSplit split = core::RegionSplit::kPerRegion) {
  HealerService service(g0, config);
  service.engine().set_region_split(split);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  int64_t alerts = 0;
  service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });
  VectorChurnStream stream(ops);
  service.run(stream);
  EXPECT_EQ(alerts, 0);
  EXPECT_EQ(service.stats().cert_rejections, 0);
  return ServiceRun{checkpoint(service.engine()), certs.str(), service.stats()};
}

/// The wave-at-a-time reference: `ops` replayed straight into a
/// ForgivingGraph with no service code on the path — inserts apply at once,
/// deletes of live, not-yet-queued victims chop into waves of `wave_size`,
/// each healed by one delete_batch, and every `certify_every`-th wave's
/// certificate is saved in order.
struct Replay {
  std::string checkpoint;
  std::string cert_bytes;
  int64_t waves = 0;
  int64_t deletes = 0;
};

Replay replay_waves(const Graph& g0, const std::vector<ChurnOp>& ops, int wave_size,
                    int certify_every,
                    core::RegionSplit split = core::RegionSplit::kPerRegion) {
  ForgivingGraph fg(g0);
  fg.set_region_split(split);
  harness::CertificateCollector collector;
  std::ostringstream certs;
  std::vector<NodeId> wave;
  std::unordered_set<NodeId> in_wave;
  Replay out;
  auto heal = [&] {
    const bool sampled = certify_every > 0 && out.waves % certify_every == 0;
    fg.set_certificate_sink(sampled ? &collector : nullptr);
    fg.delete_batch(wave);
    fg.set_certificate_sink(nullptr);
    for (const cert::WaveCertificate& c : collector.certs) c.save(certs);
    collector.certs.clear();
    out.deletes += static_cast<int64_t>(wave.size());
    ++out.waves;
    wave.clear();
    in_wave.clear();
  };
  for (const ChurnOp& op : ops) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
      continue;
    }
    if (!fg.is_alive(op.victim) || !in_wave.insert(op.victim).second) continue;
    wave.push_back(op.victim);
    if (static_cast<int>(wave.size()) == wave_size) heal();
  }
  if (!wave.empty()) heal();
  out.checkpoint = checkpoint(fg);
  out.cert_bytes = certs.str();
  return out;
}

// ---------------------------------------------------------------------------
// Service-vs-engine equivalence.

class HealerServiceEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(HealerServiceEquivalence, MatchesWaveAtATimeReplayByteIdentically) {
  // The service at {1,2,4} workers × both RegionSplit modes against the
  // direct wave-at-a-time replay of the same stream: byte-identical engine
  // state AND certificate stream. Each split heals a different structure,
  // so each compares against its own replay.
  const int workers = GetParam();
  Rng rng(9001);
  Graph g0 = make_sparse_random(400, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(400, 3000, 0xFEED);

  for (core::RegionSplit split :
       {core::RegionSplit::kPerRegion, core::RegionSplit::kGlobal}) {
    Replay reference = replay_waves(g0, ops, 16, 8, split);
    ASSERT_GT(reference.waves, 10);
    ASSERT_FALSE(reference.cert_bytes.empty());

    HealerConfig config;
    config.wave_size = 16;
    config.certify_every = 8;
    config.plan_workers = workers;
    config.commit_workers = workers;
    config.break_workers = workers;
    ServiceRun run = run_service(g0, ops, config, split);

    EXPECT_EQ(reference.checkpoint, run.checkpoint)
        << "checkpoint diverged at " << workers << " workers";
    EXPECT_EQ(reference.cert_bytes, run.cert_bytes)
        << "certificate stream diverged at " << workers << " workers";
    EXPECT_EQ(reference.waves, run.stats.waves);
    EXPECT_EQ(reference.deletes, run.stats.deletes);
    EXPECT_EQ(run.stats.certified_waves, (run.stats.waves + 7) / 8);
    EXPECT_EQ(run.stats.stale_replans, 0);
    EXPECT_EQ(run.stats.rejected_inserts, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, HealerServiceEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(HealerService, BreakWorkersBitIdenticalAcrossSplits) {
  // The break fan-out through the full serving loop: break workers {1,2,4}
  // × both RegionSplit modes against the wave-at-a-time replay (C4
  // extended to the break phase), on a second substrate and stream.
  Rng rng(9002);
  Graph g0 = make_sparse_random(300, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1500, 0xBEEF);

  for (core::RegionSplit split :
       {core::RegionSplit::kPerRegion, core::RegionSplit::kGlobal}) {
    Replay reference = replay_waves(g0, ops, 16, 8, split);
    ASSERT_GT(reference.waves, 8);

    for (int workers : {1, 2, 4}) {
      HealerConfig config;
      config.wave_size = 16;
      config.certify_every = 8;
      config.break_workers = workers;
      config.commit_workers = workers;
      ServiceRun run = run_service(g0, ops, config, split);
      EXPECT_EQ(reference.checkpoint, run.checkpoint)
          << "checkpoint diverged at break workers=" << workers;
      EXPECT_EQ(reference.cert_bytes, run.cert_bytes)
          << "certificate stream diverged at break workers=" << workers;
      EXPECT_EQ(run.stats.stale_replans, 0);
    }
  }
}

// Fixed small substrate for the hand-written streams below.
Graph make_test_substrate() {
  Rng rng(5);
  return make_sparse_random(64, 4.0, rng);
}

TEST(HealerService, DuplicateAndDeadDeletesDropConsistently) {
  // Duplicates inside one forming wave and deletes of long-dead victims
  // are dropped by the replay's rule — decided at ingest time, when every
  // earlier wave has already committed.
  Graph g0 = make_test_substrate();
  std::vector<ChurnOp> ops;
  for (NodeId v : {NodeId{3}, NodeId{3}, NodeId{7}, NodeId{9}, NodeId{11}})
    ops.push_back(ChurnOp::Delete(v));  // 3 repeats inside the window
  for (NodeId v : {NodeId{3}, NodeId{7}})
    ops.push_back(ChurnOp::Delete(v));  // long dead by now
  ops.push_back(ChurnOp::Insert({NodeId{20}, NodeId{21}}));

  HealerConfig config;
  config.wave_size = 4;
  ServiceRun run = run_service(g0, ops, config);
  Replay reference = replay_waves(g0, ops, 4, 0);

  EXPECT_EQ(run.stats.dropped_deletes, 3);
  EXPECT_EQ(run.stats.deletes, 4);
  EXPECT_EQ(reference.deletes, 4);
  EXPECT_EQ(reference.checkpoint, run.checkpoint);
}

TEST(HealerService, RejectsBadInsertsWithoutAborting) {
  // Inserts naming a dead, unknown or repeated neighbour are client errors:
  // the service rejects each one before it reaches the engine (which would
  // have allocated an id and bumped the epoch, then died), counts it,
  // alerts, and keeps serving. The result is byte-identical to the stream
  // that never carried the bad ops.
  Graph g0 = make_test_substrate();
  std::vector<ChurnOp> ops = make_stream(64, 400, 0xBAD);
  const NodeId first_victim = [&] {
    for (const ChurnOp& op : ops)
      if (op.kind == ChurnOp::Kind::kDelete) return op.victim;
    return kInvalidNode;
  }();
  ASSERT_NE(first_victim, kInvalidNode);

  HealerConfig config;
  config.wave_size = 4;
  config.certify_every = 2;
  ServiceRun clean = run_service(g0, ops, config);

  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  std::vector<std::string> alerts;
  service.set_alert([&alerts](int64_t, const std::string& what) { alerts.push_back(what); });
  const size_t mid = ops.size() / 2;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == mid) {
      ASSERT_FALSE(service.engine().is_alive(first_victim));
      service.push(ChurnOp::Insert({NodeId{1}, first_victim}));  // dead
      service.push(ChurnOp::Insert({NodeId{1}, NodeId{1 << 30}}));  // never existed
      service.push(ChurnOp::Insert({kInvalidNode}));
      service.push(ChurnOp::Insert({NodeId{40}, NodeId{41}, NodeId{40}}));  // repeated
    }
    service.push(ops[i]);
  }
  service.flush();

  const HealerStats& stats = service.stats();
  EXPECT_EQ(stats.rejected_inserts, 4);
  EXPECT_EQ(stats.ops, static_cast<int64_t>(ops.size()) + 4);
  EXPECT_EQ(stats.inserts, clean.stats.inserts);
  EXPECT_EQ(stats.waves, clean.stats.waves);
  EXPECT_EQ(stats.cert_rejections, 0);
  ASSERT_EQ(alerts.size(), 4u);
  for (const std::string& a : alerts) EXPECT_EQ(a.rfind("insert rejected: ", 0), 0u) << a;
  EXPECT_EQ(checkpoint(service.engine()), clean.checkpoint);
  EXPECT_EQ(certs.str(), clean.cert_bytes);
  service.engine().validate();
}

// ---------------------------------------------------------------------------
// Completion contract: heal and join latency are measured from outside as
// the time until push() returns, so the counters must already reflect the
// op by then — with and without the guardrails.

/// `tag` names the snapshot files: ctest runs tests as parallel processes,
/// so each test needs its own.
HealerConfig contract_config(bool guarded, const std::string& tag) {
  HealerConfig config;
  config.wave_size = 4;
  if (guarded) {
    config.certify_every = 1;
    config.audit_every = 1;
    config.snapshot_every = 2;
    config.snapshot_path = testing::TempDir() + "/healer_contract_" + tag;
  }
  return config;
}

void remove_snapshot_files(const HealerConfig& config) {
  if (config.snapshot_path.empty()) return;
  std::remove((config.snapshot_path + ".base").c_str());
  std::remove((config.snapshot_path + ".log").c_str());
}

TEST(HealerService, WaveIsCountedWhenItsClosingPushReturns) {
  Graph g0 = make_test_substrate();
  std::vector<ChurnOp> ops = make_stream(64, 300, 0xC105E);
  for (bool guarded : {false, true}) {
    HealerConfig config = contract_config(guarded, "wave");
    {
      HealerService service(g0, config);
      int64_t deletes = 0;
      for (const ChurnOp& op : ops) {
        if (op.kind == ChurnOp::Kind::kDelete) ++deletes;
        service.push(op);
        ASSERT_EQ(service.stats().waves, deletes / config.wave_size)
            << "guarded=" << guarded << " after " << deletes << " deletes";
        ASSERT_EQ(service.stats().deletes, deletes / config.wave_size * config.wave_size);
      }
      ASSERT_GT(service.stats().waves, 10);
      EXPECT_EQ(service.stats().dropped_deletes, 0);
      if (guarded) {
        EXPECT_EQ(service.stats().certified_waves, service.stats().waves);
        EXPECT_EQ(service.stats().audits, service.stats().waves);
      }
    }
    remove_snapshot_files(config);
  }
}

TEST(HealerService, InsertIsCountedWhenItsPushReturns) {
  Graph g0 = make_test_substrate();
  std::vector<ChurnOp> ops = make_stream(64, 300, 0x10105);
  for (bool guarded : {false, true}) {
    HealerConfig config = contract_config(guarded, "insert");
    {
      HealerService service(g0, config);
      int64_t inserts = 0;
      for (const ChurnOp& op : ops) {
        const NodeId next_id = static_cast<NodeId>(service.engine().gprime().node_capacity());
        service.push(op);
        if (op.kind != ChurnOp::Kind::kInsert) continue;
        ++inserts;
        ASSERT_EQ(service.stats().inserts, inserts) << "guarded=" << guarded;
        EXPECT_TRUE(service.engine().is_alive(next_id));
      }
      ASSERT_GT(inserts, 100);
      EXPECT_EQ(service.stats().rejected_inserts, 0);
    }
    remove_snapshot_files(config);
  }
}

TEST(HealerService, FlushHealsThePartialTrailingWave) {
  Rng rng(6);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);
  for (NodeId v = 0; v < 5; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  EXPECT_EQ(service.stats().waves, 2);  // one full wave + the trailing 1
  EXPECT_EQ(service.stats().deletes, 5);
  service.engine().validate();
}

// ---------------------------------------------------------------------------
// Epoch-gated admission.

TEST(HealerService, StaleAdmissionReplansInsteadOfCommitting) {
  Rng rng(7);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);

  // The seam fires between snapshot and commit; an insert through engine()
  // bumps the mutation epoch without touching any planned victim.
  int64_t hooked_wave = -1;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || hooked_wave != -1) return;
    hooked_wave = wave;
    std::vector<NodeId> neighbors{NodeId{60}, NodeId{61}};
    service.engine().insert(neighbors);
  });

  for (NodeId v = 0; v < 8; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_EQ(hooked_wave, 0);
  EXPECT_EQ(service.stats().stale_replans, 1);
  EXPECT_EQ(service.stats().waves, 2);
  EXPECT_EQ(service.stats().deletes, 8);  // the re-planned wave committed whole
  EXPECT_EQ(service.stats().dropped_deletes, 0);
  for (NodeId v = 0; v < 8; ++v) EXPECT_FALSE(service.engine().is_alive(v));
  service.engine().validate();
}

TEST(HealerService, StaleAdmissionRevalidatesKilledVictims) {
  Rng rng(8);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  HealerService service(g0, config);

  // The intervening mutation is itself a deletion of one of the wave's own
  // victims: the gate must drop the now-dead victim and re-plan the rest.
  bool fired = false;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || fired) return;
    fired = true;
    service.engine().remove(NodeId{2});
  });

  for (NodeId v = 0; v < 4; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_TRUE(fired);
  EXPECT_EQ(service.stats().stale_replans, 1);
  EXPECT_EQ(service.stats().dropped_deletes, 1);  // victim 2 died externally
  EXPECT_EQ(service.stats().deletes, 3);
  for (NodeId v = 0; v < 4; ++v) EXPECT_FALSE(service.engine().is_alive(v));
  service.engine().validate();
}

TEST(HealerServiceDeathTest, ForcedStaleCommitDiesWithoutTheGate) {
  // What the admission gate protects against: bypass the service and drive
  // the engine's plan/commit split directly — a mutation between the two
  // hits the core's FG_CHECK wall. The service turns this death into the
  // re-plan counted by the tests above.
  Rng rng(9);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerService service(g0);
  std::vector<NodeId> wave{NodeId{1}, NodeId{2}};
  core::RepairPlan plan = service.engine().plan_delete_batch(wave);
  service.push(ChurnOp::Insert({NodeId{10}, NodeId{11}}));  // epoch bump
  EXPECT_DEATH(service.engine().commit_delete_batch(plan), "stale plan");
}

// ---------------------------------------------------------------------------
// Sampled certificate guardrail.

TEST(HealerService, GuardrailSamplesEveryKthWaveAndTeesValidCertificates) {
  Rng rng(10);
  Graph g0 = make_sparse_random(256, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(256, 800, 0xCAFE);

  HealerConfig config;
  config.wave_size = 8;
  config.certify_every = 3;
  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  VectorChurnStream stream(ops);
  service.run(stream);

  const HealerStats& stats = service.stats();
  ASSERT_GT(stats.waves, 6);
  // Waves 0, 3, 6, ... are sampled.
  EXPECT_EQ(stats.certified_waves, (stats.waves + 2) / 3);
  EXPECT_EQ(stats.cert_rejections, 0);

  // The teed stream is a valid fgcheck input: every certificate parses,
  // passes the first-principles checker, and carries the engine's
  // sequential certified-wave ordinal (the k-th sampled wave is stamped k,
  // whatever service wave it sampled).
  std::istringstream in(certs.str());
  int64_t parsed = 0;
  for (;;) {
    cert::WaveCertificate c;
    bool eof = false;
    cert::CheckResult pr = cert::parse(in, &c, &eof);
    if (eof) break;
    ASSERT_TRUE(pr.ok) << pr.diagnostic;
    EXPECT_EQ(c.wave, parsed);
    cert::CheckResult cr = cert::check(c);
    EXPECT_TRUE(cr.ok) << cr.diagnostic;
    ++parsed;
  }
  EXPECT_EQ(parsed, stats.certified_waves);
}

TEST(HealerService, GuardrailOffEmitsNothing) {
  Rng rng(11);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  config.certify_every = 0;
  HealerService service(g0, config);
  std::ostringstream certs;
  service.set_certificate_stream(&certs);
  for (NodeId v = 0; v < 12; ++v) service.push(ChurnOp::Delete(v));
  service.flush();
  EXPECT_EQ(service.stats().certified_waves, 0);
  EXPECT_TRUE(certs.str().empty());
}

// ---------------------------------------------------------------------------
// Sampled audit guardrail (self-stabilizing recovery in the serving loop).

TEST(HealerService, AuditGuardrailDetectsAlertsAndRecovers) {
  Rng rng(13);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerConfig config;
  config.wave_size = 4;
  config.audit_every = 1;
  HealerService service(g0, config);

  std::vector<std::string> alerts;
  service.set_alert([&alerts](int64_t, const std::string& what) {
    alerts.push_back(what);
  });

  // Corrupt derived state (an image multiplicity, away from the wave's
  // victims) between snapshot and commit. The injection bumps the mutation
  // epoch, so the admission gate re-plans; the post-commit audit then finds
  // the drift and the stabilizer repairs it in-loop.
  bool fired = false;
  service.set_admission_hook([&](int64_t wave) {
    if (wave != 0 || fired) return;
    fired = true;
    service.engine().core().inject_multiplicity_bump(NodeId{50}, NodeId{51});
  });

  for (NodeId v = 0; v < 8; ++v) service.push(ChurnOp::Delete(v));
  service.flush();

  EXPECT_TRUE(fired);
  const HealerStats& stats = service.stats();
  EXPECT_EQ(stats.waves, 2);
  EXPECT_EQ(stats.audits, 2);  // audit_every=1 samples every wave
  EXPECT_GT(stats.audit_violations, 0);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.cert_rejections, 0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts.front().rfind("audit: ", 0), 0u) << alerts.front();

  // The loop left a clean engine behind: audit and validate both agree.
  Stabilizer stabilizer(service.engine());
  EXPECT_TRUE(stabilizer.audit().clean());
  service.engine().validate();
}

TEST(HealerService, AuditGuardrailQuietOnCleanChurn) {
  Rng rng(14);
  Graph g0 = make_sparse_random(128, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(128, 400, 0xD00D);
  HealerConfig config;
  config.wave_size = 8;
  config.audit_every = 4;
  ServiceRun run = run_service(g0, ops, config);  // asserts zero alerts
  ASSERT_GT(run.stats.waves, 8);
  EXPECT_EQ(run.stats.audits, (run.stats.waves + 3) / 4);
  EXPECT_EQ(run.stats.audit_violations, 0);
  EXPECT_EQ(run.stats.recoveries, 0);
}

TEST(HealerService, RunReportsIngestedOpCount) {
  Rng rng(12);
  Graph g0 = make_sparse_random(64, 4.0, rng);
  HealerService service(g0);
  std::vector<ChurnOp> ops = make_stream(64, 100, 13);
  VectorChurnStream stream(ops);
  EXPECT_EQ(service.run(stream), 100);
  EXPECT_EQ(service.stats().ops, 100);
}

}  // namespace
}  // namespace fg
