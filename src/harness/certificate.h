// Certificate emission: build a cert::WaveCertificate for every committed
// deletion wave (docs/CERTIFICATES.md).
//
// This is the ENGINE side of the certificate subsystem. src/cert holds the
// format, parser, and independent checker and never sees engine state; this
// module reads the structural core around one plan/commit cycle and writes
// down what the repair claims to have done, in the normalized form the
// checker re-validates from first principles:
//
//   * begin_wave runs against the PLAN, before the commit: it snapshots
//     deg_G of the wave's affected set — the owners of every vnode in an
//     affected RT subtree plus the anchor owners (the only processors whose
//     healed degree a repair can change);
//   * end_wave runs after the commit: it walks each region's final RT in
//     preorder (normalizing vnode handles to local indices, so the witness
//     names the tree shape, never an arena position), derives the image
//     edges, fills the degree before/after claims, samples stretch pairs
//     with explicit witness paths and per-hop edge provenance, and
//     attaches the distributed engine's Lemma-4 cost claim when one is
//     given.
//
// Everything emitted is a pure function of (core state, plan, committed
// roots): no iteration order depends on scheduling, hash functions, or
// engine internals, so certificates are byte-identical at any shard/commit
// worker count and across the centralized and dist-kGlobalPlan engines —
// contract C4 extended from checkpoints to certificates (pinned by
// tests/certificate_equivalence_test.cpp and certificate_oracle_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "cert/certificate.h"
#include "fg/core/structural_core.h"
#include "fg/virtual_forest.h"
#include "graph/graph.h"

namespace fg::harness {

/// Receives each committed wave's certificate. Engines call the sink from
/// inside delete_batch, after the repair fully commits; install one with
/// ForgivingGraph::set_certificate_sink / DistForgivingGraph::
/// set_certificate_sink (nullptr disables emission again).
class CertificateSink {
 public:
  virtual ~CertificateSink() = default;
  virtual void on_certificate(const cert::WaveCertificate& c) = 0;
};

/// Sink that serializes every certificate to a text stream in the canonical
/// format (the `--certify` path of examples/simulate; feed the output to
/// tools/fgcheck). With include_cost false the engine-specific cost line is
/// dropped — what the cross-engine equivalence comparisons use.
class CertificateWriter final : public CertificateSink {
 public:
  explicit CertificateWriter(std::ostream& os, bool include_cost = true)
      : os_(&os), include_cost_(include_cost) {}

  void on_certificate(const cert::WaveCertificate& c) override;

 private:
  std::ostream* os_;
  bool include_cost_;
};

/// Sink that keeps every certificate in memory (the test suites' hook).
class CertificateCollector final : public CertificateSink {
 public:
  void on_certificate(const cert::WaveCertificate& c) override {
    certs.push_back(c);
  }

  std::vector<cert::WaveCertificate> certs;
};

/// Builds one wave's certificate around a plan/commit cycle. One instance
/// per wave; begin_wave must run before the commit mutates the core.
class CertificateBuilder {
 public:
  /// Number of stretch pairs sampled per wave (deterministic stride over
  /// the alive nodes; small, since each pair costs two BFS passes).
  static constexpr int kStretchSamples = 4;

  /// Snapshot the pre-commit state the certificate needs: deg_G of the
  /// affected set (anchor owners + owners of vnodes in the affected RT
  /// subtrees of every region of `plan`).
  void begin_wave(const core::StructuralCore& core, const core::RepairPlan& plan);

  /// Assemble the certificate after the plan committed. `region_roots` is
  /// each region's final RT root aligned with plan.regions (kNoVNode for a
  /// region that produced none); `cost` attaches the distributed engine's
  /// Lemma-4 claim (nullptr for the centralized engine).
  cert::WaveCertificate end_wave(const core::StructuralCore& core,
                                 const core::RepairPlan& plan, long wave,
                                 std::span<const VNodeId> region_roots,
                                 const cert::CostClaim* cost) const;

 private:
  /// deg_G before the commit, for every node whose degree the wave can
  /// change (keys are the affected set; victims included, filtered later).
  std::unordered_map<NodeId, int> degree_before_;
};

}  // namespace fg::harness
