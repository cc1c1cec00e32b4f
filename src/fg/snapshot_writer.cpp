#include "fg/snapshot_writer.h"

#include <algorithm>
#include <utility>

namespace fg {

// ----------------------------------------------------------- SnapshotRecorder

void SnapshotRecorder::begin(const core::StructuralCore& core, uint64_t waves,
                             uint64_t cursor) {
  waves_ = waves;
  cursor_ = cursor;
  expected_epoch_ = core.mutation_epoch();
  needs_rebase_ = false;
  pending_inserts_.clear();
  touched_mult_.clear();
}

void SnapshotRecorder::rebased(const core::StructuralCore& core) {
  expected_epoch_ = core.mutation_epoch();
  needs_rebase_ = false;
  pending_inserts_.clear();
  touched_mult_.clear();
}

void SnapshotRecorder::on_insert(NodeId id, std::span<const NodeId> neighbors) {
  ++expected_epoch_;
  snap::WaveDelta::Insert ins;
  ins.id = static_cast<uint32_t>(id);
  ins.neighbors.reserve(neighbors.size());
  for (NodeId v : neighbors) ins.neighbors.push_back(static_cast<uint32_t>(v));
  pending_inserts_.push_back(std::move(ins));
}

void SnapshotRecorder::on_image_touch(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  touched_mult_.push_back(slot_key(u, v));
}

void SnapshotRecorder::on_wave_committed(const core::StructuralCore& core,
                                         const core::RepairPlan& plan) {
  // The commit's own epoch bump; recovery waves (rebuild_for_recovery bumps
  // once more before the plan) and out-of-band mutations land past this and
  // force a rebase instead of a delta the core no longer matches.
  ++expected_epoch_;
  if (plan.recovery || core.mutation_epoch() != expected_epoch_) {
    needs_rebase_ = true;
    expected_epoch_ = core.mutation_epoch();
    pending_inserts_.clear();
    touched_mult_.clear();
    return;
  }

  snap::WaveDelta d;
  d.wave = ++waves_;
  d.epoch_after = core.mutation_epoch();
  d.cursor = cursor_;
  d.inserts = std::move(pending_inserts_);
  pending_inserts_.clear();
  d.victims.reserve(plan.victims.size());
  for (NodeId v : plan.victims) d.victims.push_back(static_cast<uint32_t>(v));

  const VirtualForest& forest = core.forest();
  d.arena_size_after = static_cast<uint64_t>(forest.arena_size());
  d.forest_live_after = forest.live_count();

  // Touched rows: every break-script handle plus the wave's whole arena
  // reservation (fresh anchor leaves and helpers). Merge-side parent-link
  // rewrites only ever hit piece roots (script events) and new helpers
  // (reservation), so this set is complete.
  std::vector<VNodeId> handles;
  for (const core::RegionPlan& region : plan.regions) {
    for (const core::RegionPlan::Event& e : region.events) handles.push_back(e.h);
  }
  for (int i = 0; i < plan.arena_total; ++i) handles.push_back(plan.arena_start + i);
  std::sort(handles.begin(), handles.end());
  handles.erase(std::unique(handles.begin(), handles.end()), handles.end());

  const std::vector<VirtualForest::VNode>& rows = forest.dump();
  d.rows.reserve(handles.size());
  std::vector<uint64_t> slot_keys;
  slot_keys.reserve(handles.size());
  for (VNodeId h : handles) {
    const VirtualForest::VNode& row = rows[static_cast<size_t>(h)];
    d.rows.push_back({static_cast<uint32_t>(h), core::to_vrow(row)});
    // Tombstones keep (owner, other), so torn-down rows still name the slot
    // key whose entry the break cleared.
    if (row.owner != kInvalidNode) slot_keys.push_back(slot_key(row.owner, row.other));
  }

  std::sort(slot_keys.begin(), slot_keys.end());
  slot_keys.erase(std::unique(slot_keys.begin(), slot_keys.end()), slot_keys.end());
  d.slots.reserve(slot_keys.size());
  for (uint64_t key : slot_keys) {
    NodeId owner = static_cast<NodeId>(key >> 32);
    NodeId other = static_cast<NodeId>(static_cast<uint32_t>(key));
    const core::SlotTable::Entry* s = core.slot_table().find(owner, other);
    snap::WaveDelta::SlotOp op;
    op.owner = static_cast<uint32_t>(owner);
    op.other = static_cast<uint32_t>(other);
    op.present = s != nullptr;
    op.leaf = s != nullptr ? static_cast<int32_t>(s->leaf) : -1;
    op.helper = s != nullptr ? static_cast<int32_t>(s->helper) : -1;
    d.slots.push_back(op);
  }

  std::sort(touched_mult_.begin(), touched_mult_.end());
  touched_mult_.erase(std::unique(touched_mult_.begin(), touched_mult_.end()),
                      touched_mult_.end());
  d.mult.reserve(touched_mult_.size());
  for (uint64_t key : touched_mult_) {
    snap::WaveDelta::MultOp op;
    op.u = static_cast<uint32_t>(key >> 32);
    op.v = static_cast<uint32_t>(key);
    op.count = core.image_multiplicity().count(key);
    d.mult.push_back(op);
  }
  touched_mult_.clear();

  if (sink_) sink_(d);
}

// ------------------------------------------------------------- SnapshotWriter

SnapshotWriter::SnapshotWriter(std::string base_path, std::string log_path,
                               int base_every)
    : base_path_(std::move(base_path)),
      log_path_(std::move(log_path)),
      base_every_(base_every) {
  recorder_.set_sink([this](const snap::WaveDelta& delta) {
    std::vector<uint8_t> frame;
    snap::append_delta(&frame, delta);
    std::string err;
    if (!snap::append_file(log_path_, frame, &err)) {
      if (error_.empty()) error_ = "delta append failed: " + err;
      return;
    }
    ++waves_since_base_;
  });
}

bool SnapshotWriter::begin(const core::StructuralCore& core, uint64_t waves,
                           uint64_t cursor, std::string* error) {
  recorder_.begin(core, waves, cursor);
  if (!write_base(core)) {
    if (error != nullptr) *error = error_;
    return false;
  }
  return true;
}

bool SnapshotWriter::maintain(const core::StructuralCore& core) {
  bool due = base_every_ > 0 && waves_since_base_ >= base_every_;
  if (recorder_.needs_rebase() || due) {
    if (!write_base(core)) return false;
    recorder_.rebased(core);
  }
  return error_.empty();
}

std::string SnapshotWriter::take_error() {
  std::string err = std::move(error_);
  error_.clear();
  return err;
}

bool SnapshotWriter::write_base(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  image.wave = recorder_.waves();
  image.cursor = recorder_.cursor();
  std::string err;
  if (!snap::write_file_atomic(base_path_, snap::encode_base(image), &err)) {
    if (error_.empty()) error_ = "base write failed: " + err;
    return false;
  }
  // Log reset strictly after the base lands: a crash between the two leaves
  // stale records whose wave ids the new base already covers, and
  // restore_snapshot skips those; resetting first could lose waves.
  if (!snap::write_file_atomic(log_path_, snap::encode_log_header(), &err)) {
    if (error_.empty()) error_ = "log reset failed: " + err;
    return false;
  }
  waves_since_base_ = 0;
  return true;
}

// ----------------------------------------------------------- restore_snapshot

SnapshotRestore restore_snapshot(const std::string& base_path,
                                 const std::string& log_path,
                                 core::StructuralCore* out) {
  SnapshotRestore res;

  std::vector<uint8_t> bytes;
  if (!snap::read_file(base_path, &bytes, &res.error)) return res;
  snap::BaseImage image;
  if (!snap::decode_base(bytes, &image, &res.error)) return res;
  if (!core::StructuralCore::from_base_image(image, out, &res.error)) return res;
  res.waves = image.wave;
  res.cursor = image.cursor;

  // A missing log just means no deltas were appended after the base.
  std::vector<uint8_t> log_bytes;
  std::string log_err;
  if (snap::read_file(log_path, &log_bytes, &log_err)) {
    snap::LogScan scan;
    if (!snap::scan_log(log_bytes, &scan, &res.error)) return res;
    res.truncated = scan.truncated;
    if (scan.truncated) res.error = scan.detail;
    for (const snap::WaveDelta& delta : scan.deltas) {
      // Records at or below the base's wave are a pre-rotation remnant (the
      // crash window between base write and log reset) — already reflected.
      if (delta.wave <= res.waves) continue;
      if (delta.wave != res.waves + 1) {
        res.error = "delta log gap: wave " + std::to_string(delta.wave) +
                    " after wave " + std::to_string(res.waves);
        res.ok = false;
        return res;
      }
      std::string apply_err;
      if (!out->apply_wave_delta(delta, &apply_err)) {
        res.error = "wave " + std::to_string(delta.wave) + ": " + apply_err;
        res.ok = false;
        return res;
      }
      res.waves = delta.wave;
      res.cursor = delta.cursor;
    }
  }

  res.ok = true;
  return res;
}

}  // namespace fg
