// Sustained-churn healer service: the long-lived serving loop over the
// sharded plan/commit pipeline (docs/DESIGN.md, "Healer service").
//
// Every layer below this one heals a single deletion wave at a time. The
// paper's model, though, is *continuous* churn: an adversary inserting and
// deleting processors indefinitely while the structure self-heals. The
// HealerService turns the single-wave machinery into that serving loop:
//
//   * It ingests a continuous insert/delete stream (push / run) and chops
//     it into repair waves of `wave_size` deletions. Inserts apply in
//     stream order; deletions accumulate into the forming wave, and the
//     push() of the delete that fills a wave heals it — plan, admit,
//     commit — before it returns. Nothing is buffered: when push() returns,
//     its op is applied, dropped, rejected, or pending in the forming wave.
//   * Planning is SNAPSHOT-BASED: a wave's RepairPlan is computed against
//     the epoch-stamped logical snapshot the plan records
//     (core::RepairPlan::epoch).
//   * Admission is EPOCH-GATED: before committing, the service compares
//     the plan's epoch stamp against the engine's current mutation epoch.
//     A stale plan — a mutation through the admission hook or an external
//     engine() call landed between snapshot and admission — is detected
//     and re-planned, never committed (the core would refuse it with a loud
//     FG_CHECK death; the service turns that hard wall into a re-plan +
//     counter). Checkpoints and certificate bytes are a pure function of
//     the op stream, never of worker counts (contract C4 extended to the
//     service loop — tests/healer_service_test.cpp).
//   * Certificates are a SAMPLED PRODUCTION GUARDRAIL: every k-th wave
//     (certify_every) emits a per-wave certificate (src/cert,
//     docs/CERTIFICATES.md), which the service re-validates in-process
//     with the first-principles checker right after the commit, and
//     surfaces rejections through a service-level alert callback. The
//     sampled stream can also be teed to an ostream for an offline
//     tools/fgcheck audit.
//   * No client op aborts the service: an insert naming a dead, unknown or
//     repeated neighbour is rejected before it touches the engine, counted
//     in stats().rejected_inserts and reported through the alert callback.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/snapshot_writer.h"
#include "graph/graph.h"
#include "harness/certificate.h"

namespace fg {

/// One operation of a churn stream.
struct ChurnOp {
  enum class Kind { kInsert, kDelete };

  Kind kind = Kind::kDelete;
  NodeId victim = kInvalidNode;    ///< kDelete: the processor to delete.
  std::vector<NodeId> neighbors;   ///< kInsert: attachment points (alive, distinct;
                                   ///< otherwise the service rejects the op).

  static ChurnOp Insert(std::vector<NodeId> neighbors) {
    ChurnOp op;
    op.kind = Kind::kInsert;
    op.neighbors = std::move(neighbors);
    return op;
  }
  static ChurnOp Delete(NodeId victim) {
    ChurnOp op;
    op.kind = Kind::kDelete;
    op.victim = victim;
    return op;
  }
};

/// Pull-based op source for HealerService::run. next() fills `*op` and
/// returns true, or returns false when the stream is drained.
class ChurnStream {
 public:
  virtual ~ChurnStream() = default;
  virtual bool next(ChurnOp* op) = 0;
};

/// Replayable vector-backed stream (what the seeded tests use: the same
/// vector fed to the service at any worker count and to a wave-at-a-time
/// engine replay must produce byte-identical results).
class VectorChurnStream final : public ChurnStream {
 public:
  explicit VectorChurnStream(std::vector<ChurnOp> ops) : ops_(std::move(ops)) {}

  bool next(ChurnOp* op) override {
    if (pos_ >= ops_.size()) return false;
    *op = ops_[pos_++];
    return true;
  }

 private:
  std::vector<ChurnOp> ops_;
  size_t pos_ = 0;
};

/// Service policy knobs. Every combination of worker counts is
/// behaviour-identical (C4); the knobs trade wall clock only.
struct HealerConfig {
  /// Deletions per repair wave. The service heals a wave as soon as this
  /// many distinct, still-alive victims accumulated (flush() heals a
  /// partial trailing wave).
  int wave_size = 64;
  /// Certificate guardrail sampling period: every k-th wave (wave indices
  /// 0, k, 2k, ...) is certified and re-checked in-process. 0 disables the
  /// guardrail entirely (no emission cost).
  int certify_every = 0;
  /// Forwarded to ForgivingGraph::set_shard_workers / set_commit_workers /
  /// set_break_workers.
  int plan_workers = 1;
  int commit_workers = 1;
  int break_workers = 1;
  /// Self-stabilization guardrail sampling period: every k-th wave (wave
  /// indices 0, k, 2k, ...) the service audits the engine against I1-I5
  /// after the commit (fg::Stabilizer). A dirty audit raises the alert
  /// callback with the report summary, then stabilizes in place — the
  /// recovery wave is certified and checked through the same guardrail
  /// path as a sampled deletion wave. 0 disables (no audit cost).
  int audit_every = 0;
  /// Durable snapshots (src/snap; docs/SNAPSHOTS.md): with snapshot_every
  /// > 0 and a non-empty snapshot_path, the service keeps
  /// `<snapshot_path>.base` (the latest base image, replaced atomically
  /// every snapshot_every waves) and `<snapshot_path>.log` (one CRC-framed
  /// delta record per committed wave) crash-consistent on disk.
  /// fg::restore_snapshot + the restoring constructor below resume from
  /// them in O(changes). 0 disables (no recording cost).
  int snapshot_every = 0;
  std::string snapshot_path;
};

/// Service counters and per-wave latency record.
struct HealerStats {
  int64_t ops = 0;              ///< Ops ingested (inserts + deletes, dropped and rejected included).
  int64_t inserts = 0;          ///< Insertions applied.
  int64_t rejected_inserts = 0; ///< Inserts naming a dead, unknown or repeated neighbour.
  int64_t deletes = 0;          ///< Deletions healed (committed in some wave).
  int64_t dropped_deletes = 0;  ///< Deletes of already-dead or already-pending victims.
  int64_t waves = 0;            ///< Repair waves committed.
  int64_t stale_replans = 0;    ///< Plans the epoch gate rejected and re-planned.
  int64_t certified_waves = 0;  ///< Waves the guardrail sampled.
  int64_t cert_rejections = 0;  ///< Sampled certificates the checker rejected.
  int64_t audits = 0;           ///< Audit-guardrail passes run (audit_every).
  int64_t audit_violations = 0; ///< Total violations those audits reported.
  int64_t recoveries = 0;       ///< Stabilize passes that rebuilt state.

  /// Per-wave repair latency (milliseconds): plan + admission (re-plan
  /// included) + commit + the wave's sampled guardrails.
  std::vector<double> wave_ms;
  /// Per-wave planning wall clock (milliseconds), the first plan only.
  std::vector<double> plan_ms;

  /// Percentile over wave_ms (p in [0, 100]; 0 for an empty record).
  double latency_percentile(double p) const;
};

/// The long-running healer loop: continuous churn in, repaired waves out,
/// sampled certificates checked on the side.
class HealerService {
 public:
  /// Alert callback: fired on the calling thread when a sampled
  /// certificate fails the in-process check, an audit finds violations,
  /// an insert is rejected or a snapshot write fails, with the wave index
  /// and a diagnostic.
  using AlertFn = std::function<void(int64_t wave, const std::string& diagnostic)>;
  /// Test seam: fired at admission time, after the plan is computed but
  /// before the epoch gate. The hook may mutate the engine — which is
  /// exactly how the stale-plan tests drive a mutation between snapshot
  /// and commit.
  using AdmissionHook = std::function<void(int64_t wave)>;

  explicit HealerService(const Graph& g0, HealerConfig config = {});

  /// Resume from a snapshot-restored core (fg::restore_snapshot):
  /// `waves_done` / `ops_done` are the restore's wave count and cursor, so
  /// wave indexing (certify/audit/snapshot sampling) and the resume cursor
  /// continue exactly where the interrupted service stopped — re-pushing
  /// the op stream from `ops_done` reproduces the uninterrupted run
  /// byte for byte (tests/snapshot_test.cpp). With snapshotting configured,
  /// a fresh base is written immediately (the restored log is consumed, not
  /// extended).
  HealerService(core::StructuralCore&& restored, uint64_t waves_done,
                uint64_t ops_done, HealerConfig config = {});

  ~HealerService();

  HealerService(const HealerService&) = delete;
  HealerService& operator=(const HealerService&) = delete;

  /// The engine the service drives. Mutate it only between push() calls or
  /// from the admission hook; the epoch gate re-plans any wave such a
  /// mutation makes stale. The service owns the engine's certificate sink;
  /// don't install your own.
  ForgivingGraph& engine() { return fg_; }
  const ForgivingGraph& engine() const { return fg_; }

  const HealerConfig& config() const { return config_; }
  const HealerStats& stats() const { return stats_; }

  void set_alert(AlertFn alert) { alert_ = std::move(alert); }
  void set_admission_hook(AdmissionHook hook) { admission_hook_ = std::move(hook); }

  /// Tee every sampled certificate to `os` in the canonical text format —
  /// a stream tools/fgcheck re-validates offline (the CI service-loop
  /// audit). nullptr disables.
  void set_certificate_stream(std::ostream* os) { cert_stream_ = os; }

  /// Ingest one op. Inserts apply at once (or are rejected, counted in
  /// stats().rejected_inserts); deletes accumulate into the forming wave
  /// (duplicates and dead victims are dropped, counted in
  /// stats().dropped_deletes). The delete that fills a wave heals it
  /// before push() returns, so stats() already counts that wave.
  void push(const ChurnOp& op);

  /// Heal the partial trailing wave, if any. The service may keep
  /// ingesting afterwards.
  void flush();

  /// push() every op of `stream`, then flush(). Returns ops ingested.
  int64_t run(ChurnStream& stream);

 private:
  void init();
  /// Heals the forming wave: plan, then the admission path — test hook,
  /// epoch gate (stale -> re-validate victims, re-plan), commit, sampled
  /// certificate check and audit, per-wave bookkeeping, snapshot upkeep.
  void dispatch_wave();

  ForgivingGraph fg_;
  HealerConfig config_;
  HealerStats stats_;
  AlertFn alert_;
  AdmissionHook admission_hook_;
  std::ostream* cert_stream_ = nullptr;

  /// The wave being formed (victims validated against the live engine).
  std::vector<NodeId> forming_;
  std::unordered_set<NodeId> forming_set_;
  harness::CertificateCollector collector_;

  /// Durable-snapshot writer (HealerConfig::snapshot_every), installed as
  /// the core's delta recorder. Each wave's delta carries stats_.ops as its
  /// resume cursor.
  std::unique_ptr<SnapshotWriter> snapshot_;
};

}  // namespace fg
