// The C4 checkpoint of an engine state, for tests: the canonical base-image
// bytes (snap::encode_base of to_base_image; docs/SNAPSHOTS.md). They hold
// the whole structure — capacity, dead ids, G' edges, every arena row, the
// slot table, the image multiplicities and the mutation epoch — so two
// states with equal checkpoints are indistinguishable to every future op.
//
// restore_checkpoint is the way back. Compare checkpoints with same_bytes,
// which names the first differing offset instead of printing the images:
//
//   EXPECT_PRED_FORMAT2(same_bytes, checkpoint(a), checkpoint(b));
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/forgiving_graph.h"
#include "snap/snapshot.h"

namespace fg {

inline std::vector<uint8_t> checkpoint(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  return snap::encode_base(image);
}

inline std::vector<uint8_t> checkpoint(const ForgivingGraph& fg) {
  return checkpoint(fg.core());
}

/// The restore side: decode_base, then from_base_image. A rejected image
/// fails the calling test with the loader's typed error.
inline core::StructuralCore restore_checkpoint(const std::vector<uint8_t>& bytes) {
  snap::BaseImage image;
  core::StructuralCore core;
  std::string error;
  EXPECT_TRUE(snap::decode_base(bytes, &image, &error) &&
              core::StructuralCore::from_base_image(image, &core, &error))
      << error;
  return core;
}

/// gtest predicate-formatter: passes iff the two byte strings are equal;
/// otherwise reports both sizes and the first offset where they differ.
inline ::testing::AssertionResult same_bytes(const char* want_expr, const char* have_expr,
                                             const std::vector<uint8_t>& want,
                                             const std::vector<uint8_t>& have) {
  if (want == have) return ::testing::AssertionSuccess();
  const size_t common = std::min(want.size(), have.size());
  const size_t offset = static_cast<size_t>(
      std::mismatch(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(common),
                    have.begin())
          .first -
      want.begin());
  return ::testing::AssertionFailure()
         << want_expr << " (" << want.size() << " bytes) and " << have_expr << " ("
         << have.size() << " bytes) first differ at byte " << offset;
}

}  // namespace fg
