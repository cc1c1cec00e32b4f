// The durable-snapshot battery (src/snap + fg::SnapshotWriter +
// core::StructuralCore binary restore; docs/SNAPSHOTS.md).
//
// Four contracts are pinned here:
//   1. Round-trip: a base image plus the per-wave delta tail restores a core
//      whose text checkpoint is byte-identical to the live engine's — after
//      EVERY wave, not just the last (the O(changes) replay path is exact).
//   2. C4 extended to snapshot bytes: base bytes and every delta frame are
//      a pure function of the op stream — identical at any break x commit
//      worker count and either RegionSplit mode.
//   3. Crash consistency: any truncation or byte flip in the delta tail is
//      detected (CRC framing), restore recovers to the last consistent
//      wave, and the restored core passes the full I1-I5 audit; a resumed
//      service replaying the op stream from the restore cursor lands on the
//      uninterrupted run's checkpoint byte for byte.
//   4. Typed loader errors: try_load / from_base_image / apply_wave_delta
//      reject malformed input with an error message, never an abort — only
//      the trusted-path load() wrapper keeps the FG_CHECK death.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace fg {
namespace {

std::string checkpoint(const core::StructuralCore& core) {
  std::stringstream ss;
  core.save(ss);
  return ss.str();
}

std::string checkpoint(const ForgivingGraph& fg) { return checkpoint(fg.core()); }

/// Seeded mixed churn stream over a pool mirror (the healer-service test's
/// scheme): valid by construction, fully determined by (n, ops, seed).
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

/// One engine-level capture: drive a ForgivingGraph through the op stream
/// in serial-service fashion (inserts in order, deletes batched into waves
/// of `wave_size`) with a SnapshotRecorder attached, keeping the initial
/// base image, every delta (record + encoded frame), and the live text
/// checkpoint at each wave commit.
struct Capture {
  snap::BaseImage base;                       // state before any op
  std::vector<uint8_t> base_bytes;
  std::vector<snap::WaveDelta> deltas;
  std::vector<uint8_t> frame_bytes;           // concatenated delta frames
  std::vector<std::string> wave_checkpoints;  // live state at each commit
  std::string final_checkpoint;
  uint64_t final_epoch = 0;
};

Capture run_engine(const Graph& g0, const std::vector<ChurnOp>& ops,
                   int wave_size, int workers, core::RegionSplit split) {
  ForgivingGraph fg(g0);
  fg.set_shard_workers(workers);
  fg.set_commit_workers(workers);
  fg.set_break_workers(workers);
  fg.set_region_split(split);

  Capture cap;
  fg.core().to_base_image(&cap.base);
  cap.base.wave = 0;
  cap.base.cursor = 0;
  cap.base_bytes = snap::encode_base(cap.base);

  SnapshotRecorder rec;
  rec.begin(fg.core(), 0, 0);
  rec.set_sink([&](const snap::WaveDelta& d) {
    cap.deltas.push_back(d);
    snap::append_delta(&cap.frame_bytes, d);
  });
  fg.core().set_delta_recorder(&rec);

  std::vector<NodeId> forming;
  uint64_t cursor = 0;
  for (const ChurnOp& op : ops) {
    ++cursor;
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
      continue;
    }
    if (!fg.is_alive(op.victim) ||
        std::find(forming.begin(), forming.end(), op.victim) != forming.end())
      continue;
    forming.push_back(op.victim);
    if (static_cast<int>(forming.size()) >= wave_size) {
      rec.set_cursor(cursor);
      fg.delete_batch(forming);
      forming.clear();
      cap.wave_checkpoints.push_back(checkpoint(fg));
    }
  }
  EXPECT_FALSE(rec.needs_rebase());
  fg.core().set_delta_recorder(nullptr);
  cap.final_checkpoint = checkpoint(fg);
  cap.final_epoch = fg.mutation_epoch();
  return cap;
}

// ---------------------------------------------------------------------------
// Format + file helpers.

TEST(SnapshotFormat, FileHelpersRoundTrip) {
  const std::string path = testing::TempDir() + "/snap_file_helpers.bin";
  std::vector<uint8_t> bytes = {1, 2, 3, 250};
  std::string error;
  ASSERT_TRUE(snap::write_file_atomic(path, bytes, &error)) << error;

  std::vector<uint8_t> back;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back, bytes);

  std::vector<uint8_t> tail = {9, 8};
  ASSERT_TRUE(snap::append_file(path, tail, &error)) << error;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back.size(), 6u);
  EXPECT_EQ(back[4], 9);

  // Atomic replace: the old content is gone wholesale, never blended.
  ASSERT_TRUE(snap::write_file_atomic(path, tail, &error)) << error;
  ASSERT_TRUE(snap::read_file(path, &back, &error)) << error;
  EXPECT_EQ(back, tail);

  EXPECT_FALSE(snap::read_file(path + ".does-not-exist", &back, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(SnapshotFormat, BaseImageRoundTripsThroughBytes) {
  Rng rng(11);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  Capture cap =
      run_engine(g0, make_stream(300, 800, 0xABC), 8, 1, core::RegionSplit::kPerRegion);

  // Re-capture the final state as a base image and push it through bytes.
  std::istringstream is(cap.final_checkpoint);
  core::StructuralCore live = core::StructuralCore::load(is);
  snap::BaseImage image;
  live.to_base_image(&image);
  image.wave = 7;
  image.cursor = 800;

  snap::BaseImage back;
  std::string error;
  ASSERT_TRUE(snap::decode_base(snap::encode_base(image), &back, &error)) << error;
  EXPECT_EQ(back.rows, image.rows);
  EXPECT_EQ(back.slots, image.slots);
  EXPECT_EQ(back.mult, image.mult);

  core::StructuralCore restored;
  ASSERT_TRUE(core::StructuralCore::from_base_image(back, &restored, &error)) << error;
  EXPECT_EQ(checkpoint(restored), cap.final_checkpoint);
  EXPECT_EQ(restored.mutation_epoch(), live.mutation_epoch());
  restored.validate();
}

TEST(SnapshotFormat, FromBaseImageRejectsTamperedDerivedState) {
  Rng rng(12);
  Graph g0 = make_sparse_random(120, 4.0, rng);
  ForgivingGraph fg(g0);
  std::vector<ChurnOp> ops = make_stream(120, 300, 0xD1CE);
  std::vector<NodeId> wave;
  for (const ChurnOp& op : ops) {
    if (op.kind == ChurnOp::Kind::kInsert) {
      fg.insert(op.neighbors);
    } else if (fg.is_alive(op.victim) &&
               std::find(wave.begin(), wave.end(), op.victim) == wave.end()) {
      wave.push_back(op.victim);
      if (wave.size() == 8) {
        fg.delete_batch(wave);
        wave.clear();
      }
    }
  }
  snap::BaseImage good;
  fg.core().to_base_image(&good);
  ASSERT_FALSE(good.mult.empty());
  ASSERT_FALSE(good.slots.empty());

  core::StructuralCore out;
  std::string error;

  snap::BaseImage bad = good;
  bad.mult[0].count += 1;  // multiplicity desynced from the forest
  EXPECT_FALSE(core::StructuralCore::from_base_image(bad, &out, &error));
  EXPECT_NE(error.find("MULT"), std::string::npos) << error;

  bad = good;
  bad.slots.pop_back();  // slot table no longer matches the rows
  EXPECT_FALSE(core::StructuralCore::from_base_image(bad, &out, &error));
  EXPECT_NE(error.find("SLOT"), std::string::npos) << error;

  bad = good;
  size_t alive_row = 0;
  while (alive_row < bad.rows.size() && !bad.rows[alive_row].alive) ++alive_row;
  ASSERT_LT(alive_row, bad.rows.size());
  bad.rows[alive_row].leaf_count = -3;  // structural pre-validation
  EXPECT_FALSE(core::StructuralCore::from_base_image(bad, &out, &error));

  // Aggregates out of range, through a CRC-valid encode: a live helper of
  // height 70 would reach is_perfect's 64-bit shift on the next wave, and
  // neither field may narrow into the packed row unchecked.
  size_t helper = 0;
  while (helper < good.rows.size() &&
         !(good.rows[helper].alive && !good.rows[helper].is_leaf))
    ++helper;
  ASSERT_LT(helper, good.rows.size());
  const snap::VRow& row = good.rows[helper];
  const std::pair<int32_t, int64_t> out_of_range[] = {
      {70, row.leaf_count}, {-1, row.leaf_count}, {row.height, int64_t{1} << 32},
      {row.height, 0}};
  for (const auto& [height, leaf_count] : out_of_range) {
    bad = good;
    bad.rows[helper].height = height;
    bad.rows[helper].leaf_count = leaf_count;
    snap::BaseImage decoded;
    ASSERT_TRUE(snap::decode_base(snap::encode_base(bad), &decoded, &error)) << error;
    EXPECT_FALSE(core::StructuralCore::from_base_image(decoded, &out, &error))
        << "height " << height << " leaf_count " << leaf_count;
    EXPECT_NE(error.find("aggregates out of range"), std::string::npos) << error;
  }

  bad = good;
  bad.gprime_edges.push_back(bad.gprime_edges.back());  // duplicate G' edge
  EXPECT_FALSE(core::StructuralCore::from_base_image(bad, &out, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// try_load: typed errors instead of the historical abort.

constexpr const char* kGoodCheckpoint =
    "FGv1\n"
    "capacity 3\n"
    "dead\n"
    "edges 2\n"
    "0 1\n"
    "1 2\n"
    "vnodes 0\n"
    "end\n";

std::string replace_once(const std::string& text, const std::string& from,
                         const std::string& to) {
  size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "fixture lacks: " << from;
  return text.substr(0, pos) + to + text.substr(pos + from.size());
}

TEST(SnapshotTryLoad, AcceptsTheFixtureAndRealCheckpoints) {
  {
    std::istringstream is(kGoodCheckpoint);
    core::StructuralCore out;
    std::string error;
    ASSERT_TRUE(core::StructuralCore::try_load(is, &out, &error)) << error;
    EXPECT_EQ(checkpoint(out), kGoodCheckpoint);
  }
  Rng rng(21);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  Capture cap =
      run_engine(g0, make_stream(200, 600, 0xF00), 8, 1, core::RegionSplit::kPerRegion);
  std::istringstream is(cap.final_checkpoint);
  core::StructuralCore out;
  std::string error;
  ASSERT_TRUE(core::StructuralCore::try_load(is, &out, &error)) << error;
  EXPECT_EQ(checkpoint(out), cap.final_checkpoint);
  out.validate();
}

TEST(SnapshotTryLoad, RejectsMalformedCheckpointsWithTypedErrors) {
  struct Case {
    const char* label;
    const char* from;
    const char* to;
    const char* diag;  ///< Substring the error must contain.
  };
  const Case cases[] = {
      {"wrong header", "FGv1\n", "FGv2\n", "FGv1"},
      {"negative capacity", "capacity 3\n", "capacity -3\n", "bad capacity"},
      {"dead id out of range", "dead\n", "dead 7\n", "dead id out of range"},
      {"duplicate dead id", "dead\n", "dead 2 2\n", "duplicate dead id"},
      {"garbage in dead line", "dead\n", "dead 2 x\n", "garbage in dead section"},
      {"negative edge count", "edges 2\n", "edges -1\n", "bad edge count"},
      {"overlong edge count", "edges 2\n", "edges 5\n", "truncated edge list"},
      {"edge endpoint out of range", "0 1\n", "0 9\n", "edge endpoint"},
      {"self-loop edge", "0 1\n", "1 1\n", "edge endpoint"},
      {"duplicate edge", "0 1\n1 2\n", "0 1\n0 1\n", "duplicate G' edge"},
      {"negative vnode count", "vnodes 0\n", "vnodes -2\n", "bad vnode count"},
      {"truncated vnode rows", "vnodes 0\n", "vnodes 2\n", "truncated vnode row"},
      {"missing end marker", "end\n", "fin\n", "missing end marker"},
      {"vnode endpoint out of range", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 9 -1 -1 -1 0 1 0\nend\n", "far endpoint out of range"},
      {"vnode owner dead", "dead\nedges 2\n0 1\n1 2\nvnodes 0\nend\n",
       "dead 2\nedges 2\n0 1\n1 2\nvnodes 1\n1 1 2 0 -1 -1 -1 0 1 0\nend\n",
       "owner is not an alive processor"},
      {"vnode link out of arena", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 5 -1 -1 0 1 0\nend\n", "link outside the live arena"},
      {"vnode height past 62", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 -1 -1 -1 70 1 0\nend\n", "aggregates out of range"},
      {"vnode height negative", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 -1 -1 -1 -1 1 0\nend\n", "aggregates out of range"},
      {"vnode height past int16", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 -1 -1 -1 65536 1 0\nend\n", "aggregates out of range"},
      {"vnode leaf count zero", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 -1 -1 -1 0 0 0\nend\n", "aggregates out of range"},
      {"vnode leaf count past int32", "vnodes 0\nend\n",
       "vnodes 1\n1 1 0 1 -1 -1 -1 0 4294967297 0\nend\n", "aggregates out of range"},
      {"slot leaf double-booked", "vnodes 0\nend\n",
       "vnodes 2\n1 1 0 1 -1 -1 -1 0 1 0\n1 1 0 1 -1 -1 -1 0 1 1\nend\n",
       "slot leaf double-booked"},
      {"truncated stream", "edges 2\n0 1\n1 2\nvnodes 0\nend\n", "edges 2\n0 1\n",
       "truncated edge list"},
      {"empty stream", kGoodCheckpoint, "", "missing FGv1 header"},
  };
  for (const Case& c : cases) {
    std::istringstream is(replace_once(kGoodCheckpoint, c.from, c.to));
    core::StructuralCore out;
    std::string error;
    EXPECT_FALSE(core::StructuralCore::try_load(is, &out, &error)) << c.label;
    EXPECT_NE(error.find(c.diag), std::string::npos)
        << c.label << " misdiagnosed as: " << error;
  }
}

TEST(SnapshotTryLoadDeathTest, TrustedLoadStillDiesLoudly) {
  std::istringstream is("FGv1\ncapacity nope\n");
  EXPECT_DEATH(core::StructuralCore::load(is), "malformed checkpoint");
}

// ---------------------------------------------------------------------------
// Round-trip: base + delta replay is exact after every wave.

class SnapshotRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotRoundTrip, DeltaReplayMatchesLiveEngineAtEveryWave) {
  const int generator = GetParam();
  Rng rng(100 + static_cast<uint64_t>(generator));
  Graph g0 = generator == 0   ? make_sparse_random(250, 4.0, rng)
             : generator == 1 ? make_barabasi_albert(250, 3, rng)
                              : make_grid(16, 16);
  const int n = g0.node_capacity();
  Capture cap =
      run_engine(g0, make_stream(n, 900, 0xBEEF), 8, 2, core::RegionSplit::kPerRegion);
  ASSERT_GE(cap.deltas.size(), 5u);
  ASSERT_EQ(cap.deltas.size(), cap.wave_checkpoints.size());

  snap::BaseImage base;
  std::string error;
  ASSERT_TRUE(snap::decode_base(cap.base_bytes, &base, &error)) << error;
  core::StructuralCore shadow;
  ASSERT_TRUE(core::StructuralCore::from_base_image(base, &shadow, &error)) << error;

  for (size_t w = 0; w < cap.deltas.size(); ++w) {
    ASSERT_TRUE(shadow.apply_wave_delta(cap.deltas[w], &error))
        << "wave " << w + 1 << ": " << error;
    ASSERT_EQ(checkpoint(shadow), cap.wave_checkpoints[w])
        << "replay diverged at wave " << w + 1;
  }
  // The live engine keeps mutating past the last wave commit (trailing
  // inserts); the shadow is exact through that commit.
  EXPECT_EQ(shadow.mutation_epoch(), cap.deltas.back().epoch_after);
  shadow.validate();
  EXPECT_TRUE(audit(shadow).clean());
}

INSTANTIATE_TEST_SUITE_P(Generators, SnapshotRoundTrip, ::testing::Values(0, 1, 2));

TEST(SnapshotRoundTrip, ApplyWaveDeltaRejectsCorruptRecords) {
  Rng rng(31);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  Capture cap =
      run_engine(g0, make_stream(200, 600, 0xACE), 8, 1, core::RegionSplit::kPerRegion);
  ASSERT_GE(cap.deltas.size(), 2u);

  auto fresh_shadow = [&] {
    snap::BaseImage base;
    std::string error;
    EXPECT_TRUE(snap::decode_base(cap.base_bytes, &base, &error)) << error;
    core::StructuralCore shadow;
    EXPECT_TRUE(core::StructuralCore::from_base_image(base, &shadow, &error)) << error;
    return shadow;
  };

  std::string error;
  {
    core::StructuralCore shadow = fresh_shadow();
    snap::WaveDelta bad = cap.deltas[0];
    ASSERT_FALSE(bad.victims.empty());
    bad.victims[0] = 1u << 20;  // victim out of range
    EXPECT_FALSE(shadow.apply_wave_delta(bad, &error));
  }
  {
    core::StructuralCore shadow = fresh_shadow();
    snap::WaveDelta bad = cap.deltas[0];
    ASSERT_FALSE(bad.rows.empty());
    bad.rows[0].row.left = 1 << 20;  // link outside the arena
    EXPECT_FALSE(shadow.apply_wave_delta(bad, &error));
  }
  {
    // Aggregates out of range on a live row: rejected before they narrow
    // into the packed VNode (a height of 70 would later overflow
    // is_perfect's 64-bit shift).
    size_t alive = 0;
    const std::vector<snap::WaveDelta::Row>& rows = cap.deltas[0].rows;
    while (alive < rows.size() && !rows[alive].row.alive) ++alive;
    ASSERT_LT(alive, rows.size());
    const snap::VRow& row = rows[alive].row;
    const std::pair<int32_t, int64_t> out_of_range[] = {
        {70, row.leaf_count}, {-2, row.leaf_count}, {row.height, int64_t{1} << 40},
        {row.height, -5}};
    for (const auto& [height, leaf_count] : out_of_range) {
      core::StructuralCore shadow = fresh_shadow();
      snap::WaveDelta bad = cap.deltas[0];
      bad.rows[alive].row.height = height;
      bad.rows[alive].row.leaf_count = leaf_count;
      EXPECT_FALSE(shadow.apply_wave_delta(bad, &error))
          << "height " << height << " leaf_count " << leaf_count;
      EXPECT_NE(error.find("aggregates out of range"), std::string::npos) << error;
    }
  }
  {
    // A delta applied against the wrong state (skipped predecessor) must
    // fail loudly, not corrupt silently: wave 2's victims were alive only
    // after wave 1's state settled — or its handles don't even exist yet.
    core::StructuralCore shadow = fresh_shadow();
    EXPECT_FALSE(shadow.apply_wave_delta(cap.deltas[1], &error));
  }
}

// ---------------------------------------------------------------------------
// C4 extended to snapshot bytes.

class SnapshotC4 : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotC4, BytesAreScheduleIndependent) {
  const core::RegionSplit split =
      GetParam() == 0 ? core::RegionSplit::kPerRegion : core::RegionSplit::kGlobal;
  Rng rng(42);
  Graph g0 = make_sparse_random(300, 5.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1200, 0xC4C4);

  Capture reference = run_engine(g0, ops, 12, 1, split);
  ASSERT_GE(reference.deltas.size(), 5u);
  for (int workers : {2, 4}) {
    Capture other = run_engine(g0, ops, 12, workers, split);
    EXPECT_EQ(reference.base_bytes, other.base_bytes);
    EXPECT_EQ(reference.frame_bytes, other.frame_bytes)
        << "delta bytes diverged at " << workers << " workers";
    EXPECT_EQ(reference.final_checkpoint, other.final_checkpoint);
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, SnapshotC4, ::testing::Values(0, 1));

// ---------------------------------------------------------------------------
// Service integration: durable files, restore, resume.

struct ServiceFiles {
  std::string base;
  std::string log;
};

ServiceFiles service_paths(const std::string& tag) {
  const std::string prefix = testing::TempDir() + "/snapshot_" + tag;
  return {prefix + ".base", prefix + ".log"};
}

HealerConfig snapshot_config(const std::string& tag, int snapshot_every) {
  HealerConfig config;
  config.wave_size = 8;
  config.certify_every = 4;
  config.plan_workers = 2;
  config.commit_workers = 2;
  config.break_workers = 2;
  config.audit_every = 8;
  config.snapshot_every = snapshot_every;
  config.snapshot_path = testing::TempDir() + "/snapshot_" + tag;
  return config;
}

TEST(SnapshotService, ResumeMatchesUninterruptedByteForByte) {
  Rng rng(77);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 2000, 0x5EED);

  // The uninterrupted reference never snapshots: recording must be a pure
  // observer, invisible in everything the service does.
  HealerConfig plain = snapshot_config("unused", 0);
  plain.snapshot_path.clear();
  std::string reference;
  int64_t reference_waves = 0;
  {
    HealerService service(g0, plain);
    VectorChurnStream stream(ops);
    service.run(stream);
    reference = checkpoint(service.engine());
    reference_waves = service.stats().waves;
  }

  for (size_t cut : {ops.size() / 3, (2 * ops.size()) / 3, ops.size()}) {
    const std::string tag = "resume_" + std::to_string(cut);
    HealerConfig config = snapshot_config(tag, 4);
    ServiceFiles files = service_paths(tag);
    {
      HealerService service(g0, config);
      int64_t alerts = 0;
      service.set_alert([&alerts](int64_t, const std::string&) { ++alerts; });
      for (size_t i = 0; i < cut; ++i) service.push(ops[i]);
      if (cut == ops.size()) service.flush();
      EXPECT_EQ(alerts, 0);
      // Destroyed mid-pipeline: whatever the files hold now is the crash
      // image the restore path must stand on.
    }
    core::StructuralCore restored;
    SnapshotRestore res = restore_snapshot(files.base, files.log, &restored);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.truncated);
    ASSERT_LE(res.cursor, cut);
    restored.validate();
    EXPECT_TRUE(audit(restored).clean());

    HealerService resumed(std::move(restored), res.waves, res.cursor, config);
    for (size_t i = res.cursor; i < ops.size(); ++i) resumed.push(ops[i]);
    resumed.flush();
    EXPECT_EQ(checkpoint(resumed.engine()), reference)
        << "resume from op " << res.cursor << " (cut " << cut << ") diverged";
    EXPECT_EQ(resumed.stats().waves, reference_waves);
  }
}

TEST(SnapshotService, DeltaLogShrinksRestoreCost) {
  // The point of the subsystem: between base rotations, restore replays
  // only the delta tail. With rotation every 64 waves and churn past one
  // rotation, the log holds strictly fewer waves than the run committed.
  Rng rng(78);
  Graph g0 = make_sparse_random(300, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(300, 1500, 0x1066);
  const std::string tag = "rotate";
  HealerConfig config = snapshot_config(tag, 64);
  ServiceFiles files = service_paths(tag);
  int64_t waves = 0;
  std::string final_checkpoint;
  {
    HealerService service(g0, config);
    VectorChurnStream stream(ops);
    service.run(stream);
    waves = service.stats().waves;
    final_checkpoint = checkpoint(service.engine());
  }
  ASSERT_GT(waves, 64);

  std::vector<uint8_t> log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  snap::LogScan scan;
  ASSERT_TRUE(snap::scan_log(log_bytes, &scan, &error)) << error;
  EXPECT_LT(static_cast<int64_t>(scan.deltas.size()), waves);

  core::StructuralCore restored;
  SnapshotRestore res = restore_snapshot(files.base, files.log, &restored);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.waves, static_cast<uint64_t>(waves));
  EXPECT_EQ(checkpoint(restored), final_checkpoint);
}

// ---------------------------------------------------------------------------
// Torn-write fuzz: every tail corruption recovers to a consistent wave.

TEST(SnapshotTornWrite, TruncationsAndFlipsRecoverToAuditCleanState) {
  Rng rng(79);
  Graph g0 = make_sparse_random(250, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(250, 1200, 0x70A0);
  const std::string tag = "torn";
  // A rotation interval the run can't reach: the whole history stays in
  // the delta log, giving the fuzz the longest possible tail to damage.
  HealerConfig config = snapshot_config(tag, 1 << 20);
  config.audit_every = 0;
  ServiceFiles files = service_paths(tag);
  {
    HealerService service(g0, config);
    VectorChurnStream stream(ops);
    service.run(stream);
  }
  std::vector<uint8_t> base_bytes, log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.base, &base_bytes, &error)) << error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  ASSERT_GT(log_bytes.size(), snap::kMagicLen + 64);

  core::StructuralCore full;
  SnapshotRestore full_res = restore_snapshot(files.base, files.log, &full);
  ASSERT_TRUE(full_res.ok) << full_res.error;
  const uint64_t full_waves = full_res.waves;
  ASSERT_GT(full_waves, 10u);

  Rng fuzz(0xF0A7);
  int recovered_short = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<uint8_t> bad = log_bytes;
    if (trial % 2 == 0) {
      // Torn append: cut anywhere after the header.
      size_t cut = snap::kMagicLen +
                   fuzz.next_below(log_bytes.size() - snap::kMagicLen);
      bad.resize(cut);
    } else {
      // Bit flip anywhere after the header.
      size_t at = snap::kMagicLen +
                  fuzz.next_below(log_bytes.size() - snap::kMagicLen);
      bad[at] ^= static_cast<uint8_t>(1u << fuzz.next_below(8));
    }
    const std::string bad_log = files.log + ".fuzz";
    ASSERT_TRUE(snap::write_file_atomic(bad_log, bad, &error)) << error;

    core::StructuralCore restored;
    SnapshotRestore res = restore_snapshot(files.base, bad_log, &restored);
    ASSERT_TRUE(res.ok) << "trial " << trial << ": " << res.error;
    ASSERT_LE(res.waves, full_waves);
    if (res.waves < full_waves) ++recovered_short;
    restored.validate();
    EXPECT_TRUE(audit(restored).clean()) << "trial " << trial;
    // And the recovered core keeps healing: one more wave commits clean.
    ForgivingGraph fg(std::move(restored));
    std::vector<NodeId> wave;
    for (NodeId v = 0; static_cast<int>(wave.size()) < 2; ++v)
      if (fg.is_alive(v)) wave.push_back(v);
    fg.delete_batch(wave);
    fg.validate();
  }
  // The fuzz must actually have damaged committed records, not only the
  // final frame's slack.
  EXPECT_GT(recovered_short, 12);

  // The base file is guarded by per-section CRCs: damage there is a hard
  // restore failure, never a silent half-restore.
  std::vector<uint8_t> bad_base = base_bytes;
  bad_base[bad_base.size() / 2] ^= 0x10;
  const std::string bad_base_path = files.base + ".fuzz";
  ASSERT_TRUE(snap::write_file_atomic(bad_base_path, bad_base, &error)) << error;
  core::StructuralCore restored;
  SnapshotRestore res = restore_snapshot(bad_base_path, files.log, &restored);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

// ---------------------------------------------------------------------------
// The standalone verifier's process-level exit contract.

TEST(SnapshotTool, FgsnapExitCodesPinned) {
  Rng rng(80);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  std::vector<ChurnOp> ops = make_stream(200, 800, 0xF65A);
  const std::string tag = "tool";
  HealerConfig config = snapshot_config(tag, 1 << 20);
  ServiceFiles files = service_paths(tag);
  {
    HealerService service(g0, config);
    VectorChurnStream stream(ops);
    service.run(stream);
  }

  auto fgsnap = [](const std::string& args) {
    const std::string cmd =
        std::string(FG_FGSNAP_BIN) + " " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return WEXITSTATUS(status);
  };

  EXPECT_EQ(fgsnap("--selftest"), 0);
  EXPECT_EQ(fgsnap("verify " + files.base), 0);
  EXPECT_EQ(fgsnap("verify " + files.base + " " + files.log), 0);
  EXPECT_EQ(fgsnap("info " + files.base + " " + files.log), 0);

  // Torn tail: detected, exit 1.
  std::vector<uint8_t> log_bytes;
  std::string error;
  ASSERT_TRUE(snap::read_file(files.log, &log_bytes, &error)) << error;
  std::vector<uint8_t> torn = log_bytes;
  torn.resize(torn.size() - 3);
  const std::string torn_log = files.log + ".torn";
  ASSERT_TRUE(snap::write_file_atomic(torn_log, torn, &error)) << error;
  EXPECT_EQ(fgsnap("verify " + files.base + " " + torn_log), 1);

  // Corrupt base: exit 1. Unreadable file: exit 2. Usage: exit 2.
  std::vector<uint8_t> base_bytes;
  ASSERT_TRUE(snap::read_file(files.base, &base_bytes, &error)) << error;
  base_bytes[base_bytes.size() / 3] ^= 0x20;
  const std::string bad_base = files.base + ".bad";
  ASSERT_TRUE(snap::write_file_atomic(bad_base, base_bytes, &error)) << error;
  EXPECT_EQ(fgsnap("verify " + bad_base), 1);
  EXPECT_EQ(fgsnap("verify " + files.base + ".does-not-exist"), 2);
  EXPECT_EQ(fgsnap("frobnicate " + files.base), 2);
}

}  // namespace
}  // namespace fg
