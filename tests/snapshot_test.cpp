// The durable-snapshot battery (src/snap + fg::SnapshotWriter +
// core::StructuralCore binary restore; docs/SNAPSHOTS.md).
//
// Four contracts are pinned here:
//   1. Round-trip: a base image plus the per-wave delta tail restores a core
//      whose checkpoint (base-image bytes) is byte-identical to the live
//      engine's — after EVERY wave, not just the last (the O(changes)
//      replay path is exact).
//   2. C4 extended to snapshot bytes: base bytes and every delta frame are
//      a pure function of the op stream — identical at any break x commit
//      worker count and either RegionSplit mode.
//   3. Crash consistency: any truncation or byte flip in the delta tail is
//      detected (CRC framing), restore recovers to the last consistent
//      wave, and the restored core passes the full I1-I5 audit; a resumed
//      service replaying the op stream from the restore cursor lands on the
//      uninterrupted run's checkpoint byte for byte.
//   4. Typed loader errors: decode_base / from_base_image / apply_wave_delta
//      reject malformed input with an error message, never an abort.
//
// The standalone fgsnap tool's exit codes and its `dump` text view are
// pinned at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

#include "checkpoint.h"
#include "fg/forgiving_graph.h"
#include "fg/healer_service.h"
#include "fg/snapshot_writer.h"
#include "fg/stabilizer.h"
#include "graph/generators.h"
#include "snap/snapshot.h"
#include "util/rng.h"

namespace fg {
namespace {

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
/// base image, every delta (record + encoded frame), and the live
/// checkpoint at each wave commit.
struct Capture {
  snap::BaseImage base;                       // state before any op
  std::vector<uint8_t> base_bytes;
  std::vector<snap::WaveDelta> deltas;
  std::vector<uint8_t> frame_bytes;           // concatenated delta frames
  std::vector<std::vector<uint8_t>> wave_checkpoints;  // live state per commit
  std::vector<uint8_t> final_checkpoint;
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
  core::StructuralCore live = restore_checkpoint(cap.final_checkpoint);
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
  EXPECT_PRED_FORMAT2(same_bytes, cap.final_checkpoint, checkpoint(restored));
  EXPECT_EQ(restored.mutation_epoch(), live.mutation_epoch());
  restored.validate();
}

/// A churned engine with dead processors, RTs and helpers: 120 processors
/// under 300 mixed ops, deletions healed in waves of 8.
ForgivingGraph churned_engine() {
  Rng rng(12);
  ForgivingGraph fg(make_sparse_random(120, 4.0, rng));
  std::vector<NodeId> wave;
  for (const ChurnOp& op : make_stream(120, 300, 0xD1CE)) {
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
  return fg;
}

TEST(SnapshotFormat, FromBaseImageRejectsTamperedDerivedState) {
  snap::BaseImage good;
  churned_engine().core().to_base_image(&good);
  ASSERT_FALSE(good.dead.empty());
  ASSERT_GE(good.gprime_edges.size(), 2u);
  ASSERT_FALSE(good.mult.empty());
  ASSERT_FALSE(good.slots.empty());

  // Alive rows to aim at: two leaves and two helpers.
  std::vector<size_t> leaves, helpers;
  for (size_t h = 0; h < good.rows.size(); ++h)
    if (good.rows[h].alive) (good.rows[h].is_leaf ? leaves : helpers).push_back(h);
  ASSERT_GE(leaves.size(), 2u);
  ASSERT_GE(helpers.size(), 2u);
  const size_t leaf = leaves[0];
  const size_t helper = helpers[0];
  const int32_t capacity = static_cast<int32_t>(good.capacity);
  const int32_t arena = static_cast<int32_t>(good.rows.size());
  auto rebook = [](snap::VRow& row, const snap::VRow& onto) {
    row.owner = onto.owner;
    row.other = onto.other;
  };

  // Every case goes through a CRC-valid encode/decode, so it is the
  // structural checks of from_base_image that must catch it, by name.
  struct Case {
    const char* label;
    std::function<void(snap::BaseImage&)> tamper;
    const char* diag;  ///< Substring the error must contain.
  };
  const Case cases[] = {
      {"dead id out of range", [](auto& b) { b.dead.push_back(b.capacity); },
       "dead id out of range"},
      {"duplicate dead id", [](auto& b) { b.dead.push_back(b.dead.front()); },
       "duplicate dead id"},
      {"G' endpoint out of range",
       [](auto& b) { b.gprime_edges.back().second = b.capacity; }, "G' edge endpoint"},
      {"G' self-loop",
       [](auto& b) { b.gprime_edges[0].second = b.gprime_edges[0].first; },
       "G' edge endpoint"},
      {"out-of-order G' edge",
       [](auto& b) { std::swap(b.gprime_edges[0], b.gprime_edges[1]); }, "out-of-order"},
      {"duplicate G' edge",
       [](auto& b) { b.gprime_edges.push_back(b.gprime_edges.back()); }, "duplicate"},
      {"malformed MULT entry", [](auto& b) { b.mult[0].count = 0; },
       "malformed MULT entry"},
      {"MULT desynced from the forest", [](auto& b) { b.mult[0].count += 1; }, "MULT"},
      {"aggregates: leaf count negative", [&](auto& b) { b.rows[leaf].leaf_count = -3; },
       "aggregates out of range"},
      // A live helper of height 70 would reach is_perfect's 64-bit shift on
      // the next wave, and neither field may narrow into the packed row.
      {"aggregates: height past 62", [&](auto& b) { b.rows[helper].height = 70; },
       "aggregates out of range"},
      {"aggregates: height past int16", [&](auto& b) { b.rows[helper].height = 65536; },
       "aggregates out of range"},
      {"aggregates: height negative", [&](auto& b) { b.rows[helper].height = -1; },
       "aggregates out of range"},
      {"aggregates: leaf count past int32",
       [&](auto& b) { b.rows[helper].leaf_count = int64_t{1} << 32; },
       "aggregates out of range"},
      {"aggregates: leaf count zero", [&](auto& b) { b.rows[helper].leaf_count = 0; },
       "aggregates out of range"},
      {"far endpoint out of range", [&](auto& b) { b.rows[leaf].other = capacity; },
       "far endpoint out of range"},
      {"owner not alive",
       [&](auto& b) { b.rows[leaf].owner = static_cast<int32_t>(b.dead.front()); },
       "owner is not an alive processor"},
      {"link outside the live arena", [&](auto& b) { b.rows[leaf].parent = arena; },
       "link outside the live arena"},
      {"rep out of range", [&](auto& b) { b.rows[helper].rep = arena; },
       "representative out of range"},
      {"forest_live mismatch", [](auto& b) { b.forest_live += 1; },
       "forest live count disagrees"},
      {"slot leaf booked twice",
       [&](auto& b) { rebook(b.rows[leaves[1]], b.rows[leaf]); },
       "slot leaf double-booked"},
      {"slot helper booked twice",
       [&](auto& b) { rebook(b.rows[helpers[1]], b.rows[helper]); },
       "slot helper double-booked"},
      {"SLOT section too short", [](auto& b) { b.slots.pop_back(); }, "SLOT"},
  };
  for (const Case& c : cases) {
    snap::BaseImage bad = good;
    c.tamper(bad);
    snap::BaseImage decoded;
    core::StructuralCore out;
    std::string error;
    ASSERT_TRUE(snap::decode_base(snap::encode_base(bad), &decoded, &error)) << error;
    EXPECT_FALSE(core::StructuralCore::from_base_image(decoded, &out, &error)) << c.label;
    EXPECT_NE(error.find(c.diag), std::string::npos)
        << c.label << " misdiagnosed as: " << error;
  }
}

// ---------------------------------------------------------------------------
// Try-load: checkpoint bytes go through decode_base then from_base_image;
// both report malformed input as a typed error, never an abort.

bool try_load(const std::vector<uint8_t>& bytes, core::StructuralCore* out,
              std::string* error) {
  snap::BaseImage image;
  return snap::decode_base(bytes, &image, error) &&
         core::StructuralCore::from_base_image(image, out, error);
}

/// The smallest interesting state: the path 0 - 1 - 2, nothing deleted.
std::vector<uint8_t> fixture_checkpoint() { return checkpoint(ForgivingGraph(make_path(3))); }

TEST(SnapshotTryLoad, AcceptsTheFixtureAndRealCheckpoints) {
  {
    const std::vector<uint8_t> bytes = fixture_checkpoint();
    core::StructuralCore out;
    std::string error;
    ASSERT_TRUE(try_load(bytes, &out, &error)) << error;
    EXPECT_PRED_FORMAT2(same_bytes, bytes, checkpoint(out));
    snap::BaseImage image;
    out.to_base_image(&image);
    EXPECT_EQ(image.capacity, 3u);
    EXPECT_TRUE(image.dead.empty());
    const std::vector<std::pair<uint32_t, uint32_t>> path = {{0, 1}, {1, 2}};
    EXPECT_EQ(image.gprime_edges, path);
    EXPECT_EQ(image.forest_live, 0);
    out.validate();
  }
  Rng rng(21);
  Graph g0 = make_sparse_random(200, 4.0, rng);
  Capture cap =
      run_engine(g0, make_stream(200, 600, 0xF00), 8, 1, core::RegionSplit::kPerRegion);
  core::StructuralCore out;
  std::string error;
  ASSERT_TRUE(try_load(cap.final_checkpoint, &out, &error)) << error;
  EXPECT_PRED_FORMAT2(same_bytes, cap.final_checkpoint, checkpoint(out));
  out.validate();
}

TEST(SnapshotTryLoad, RejectsMalformedCheckpointsWithTypedErrors) {
  const std::vector<uint8_t> good = fixture_checkpoint();
  // Byte layout (src/snap/snapshot.h): magic, 'B', wave/epoch/cursor u64s,
  // section count u32, then the GPRM section: tag, payload length u64,
  // payload (capacity u32, edge count u64, edges), payload CRC u32.
  const size_t record = snap::kMagicLen;
  const size_t sections = record + 1 + 3 * 8;
  const size_t gprm = sections + 4;
  const size_t gprm_payload = gprm + 4 + 8;
  const size_t gprm_count = gprm_payload + 4;
  const size_t gprm_crc = gprm_payload + 4 + 8 + 2 * 8;
  ASSERT_GT(good.size(), gprm_crc + 4);

  auto put_u64 = [](std::vector<uint8_t>& b, size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) b[at + i] = static_cast<uint8_t>(v >> (8 * i));
  };
  // Re-seal the GPRM payload after an edit, so only the count check can
  // catch what the edit broke.
  auto reseal_gprm = [&](std::vector<uint8_t>& b) {
    const uint32_t crc = snap::crc32(
        std::span<const uint8_t>(b).subspan(gprm_payload, gprm_crc - gprm_payload));
    for (int i = 0; i < 4; ++i) b[gprm_crc + i] = static_cast<uint8_t>(crc >> (8 * i));
  };

  struct Case {
    const char* label;
    std::function<void(std::vector<uint8_t>&)> tamper;
    const char* diag;  ///< Substring the error must contain.
  };
  const Case cases[] = {
      {"empty stream", [](auto& b) { b.clear(); }, "bad magic"},
      {"wrong magic", [](auto& b) { b[0] ^= 0xFF; }, "bad magic"},
      {"cut inside the magic", [](auto& b) { b.resize(snap::kMagicLen - 1); },
       "bad magic"},
      {"delta record, not a base", [&](auto& b) { b[record] = 'D'; },
       "not a base record"},
      {"cut inside the header", [&](auto& b) { b.resize(record + 10); },
       "truncated header"},
      {"section count 4", [&](auto& b) { b[sections] = 4; }, "unexpected section count"},
      {"wrong section tag", [&](auto& b) { b[gprm] = 'X'; }, "expected section GPRM"},
      {"payload length past the end", [&](auto& b) { put_u64(b, gprm + 4, b.size()); },
       "truncated section payload"},
      {"cut inside a payload", [&](auto& b) { b.resize(gprm_payload + 6); },
       "truncated section payload"},
      {"cut before a section CRC", [&](auto& b) { b.resize(gprm_crc + 2); },
       "truncated section frame"},
      {"flipped payload byte", [&](auto& b) { b[gprm_payload] ^= 0x01; },
       "section GPRM CRC mismatch"},
      {"flipped CRC byte", [&](auto& b) { b[gprm_crc] ^= 0x80; },
       "section GPRM CRC mismatch"},
      {"overlong edge count",
       [&](auto& b) {
         put_u64(b, gprm_count, 5);
         reseal_gprm(b);
       },
       "bad edge count"},
      {"edge count short of the payload",
       [&](auto& b) {
         put_u64(b, gprm_count, 1);
         reseal_gprm(b);
       },
       "trailing bytes in GPRM"},
      {"trailing garbage", [](auto& b) { b.push_back(0); },
       "trailing bytes after sections"},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> bad = good;
    c.tamper(bad);
    core::StructuralCore out;
    std::string error;
    EXPECT_FALSE(try_load(bad, &out, &error)) << c.label;
    EXPECT_NE(error.find(c.diag), std::string::npos)
        << c.label << " misdiagnosed as: " << error;
  }
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
    ASSERT_PRED_FORMAT2(same_bytes, cap.wave_checkpoints[w], checkpoint(shadow))
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
    EXPECT_PRED_FORMAT2(same_bytes, reference.base_bytes, other.base_bytes);
    EXPECT_PRED_FORMAT2(same_bytes, reference.frame_bytes, other.frame_bytes)
        << "delta bytes diverged at " << workers << " workers";
    EXPECT_PRED_FORMAT2(same_bytes, reference.final_checkpoint, other.final_checkpoint);
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
  std::vector<uint8_t> reference;
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
    EXPECT_PRED_FORMAT2(same_bytes, reference, checkpoint(resumed.engine()))
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
  std::vector<uint8_t> final_checkpoint;
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
  EXPECT_PRED_FORMAT2(same_bytes, final_checkpoint, checkpoint(restored));
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

/// Run the fgsnap binary; its stdout goes to `out`, stderr is dropped.
/// Returns the exit status.
int fgsnap(const std::string& args, const std::string& out = "/dev/null") {
  const std::string cmd =
      std::string(FG_FGSNAP_BIN) + " " + args + " > " + out + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1);
  return WEXITSTATUS(status);
}

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

  EXPECT_EQ(fgsnap("--selftest"), 0);
  EXPECT_EQ(fgsnap("verify " + files.base), 0);
  EXPECT_EQ(fgsnap("verify " + files.base + " " + files.log), 0);
  EXPECT_EQ(fgsnap("info " + files.base + " " + files.log), 0);
  EXPECT_EQ(fgsnap("dump " + files.base), 0);

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
  EXPECT_EQ(fgsnap("dump " + bad_base), 1);
  EXPECT_EQ(fgsnap("verify " + files.base + ".does-not-exist"), 2);
  EXPECT_EQ(fgsnap("dump " + files.base + ".does-not-exist"), 2);
  EXPECT_EQ(fgsnap("frobnicate " + files.base), 2);
}

// `fgsnap dump` against text checkpoints the engine wrote (in this layout)
// before base images became its one checkpoint format, recorded for two
// fixed states: the dump of each state's base file reproduces them byte for
// byte, so the image holds everything the text held.
TEST(SnapshotTool, FgsnapDumpMatchesRecordedTextCheckpoints) {
  Rng rng(41);
  ForgivingGraph er(make_erdos_renyi(40, 0.15, rng));
  for (int i = 0; i < 15; ++i) er.remove(rng.pick(er.healed().alive_nodes()));
  const std::pair<const char*, ForgivingGraph> states[] = {
      {"er40_15del", std::move(er)}, {"sparse120_churned", churned_engine()}};

  for (const auto& [name, fg] : states) {
    const std::string base = testing::TempDir() + "/dump_" + name + ".base";
    const std::string text = base + ".txt";
    std::string error;
    ASSERT_TRUE(snap::write_file_atomic(base, checkpoint(fg), &error)) << error;
    ASSERT_EQ(fgsnap("dump " + base, text), 0) << name;
    std::vector<uint8_t> want, have;
    ASSERT_TRUE(snap::read_file(std::string(FG_REPO_DIR) + "/tests/data/checkpoints/" +
                                    name + ".fgv1",
                                &want, &error))
        << error;
    ASSERT_TRUE(snap::read_file(text, &have, &error)) << error;
    EXPECT_PRED_FORMAT2(same_bytes, want, have) << name;
  }
}

}  // namespace
}  // namespace fg
