// Fuzz-style robustness sweep over the bitstream codecs: every truncation
// point and a battery of single-byte corruptions of (a) an encoded fabric
// stream and (b) a partial-reconfiguration delta must fail with a clean
// Status — never a throw — and must leave the target fabric untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/bitstream.h"
#include "core/fabric.h"
#include "map/macros.h"
#include "map/truth_table.h"
#include "reference_check.h"
#include "util/rng.h"

namespace pp {
namespace {

using core::Fabric;

/// A small fabric with representative configuration (LUT + feedback
/// element) so corrupted block images hit real fields.
Fabric make_configured_fabric() {
  Fabric f(2, 4);
  const auto tt =
      map::TruthTable::from_function(3, [](std::uint8_t i) { return i != 0; });
  map::macros::lut3(f, 0, 0, tt);
  map::macros::c_element(f, 1, 2);
  return f;
}

/// A second personality differing from the first in a few blocks.
Fabric make_other_fabric() {
  Fabric f(2, 4);
  const auto tt = map::TruthTable::from_function(
      3, [](std::uint8_t i) { return (i & 1) != 0; });
  map::macros::lut3(f, 0, 1, tt);
  return f;
}

bool same_config(const Fabric& a, const Fabric& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c)
      if (!(a.block(r, c) == b.block(r, c))) return false;
  return true;
}

/// Recompute a stream's trailing CRC after a deliberate body edit, so the
/// test reaches the checks *behind* the CRC (frame order, indices, trit
/// codes).
void fix_trailer_crc(std::vector<std::uint8_t>& bytes) {
  const auto body = std::span<const std::uint8_t>(bytes).first(bytes.size() - 4);
  const std::uint32_t crc = core::crc32(body);
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + i] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFF);
}

// ---------- Full-bitstream stream ------------------------------------------

TEST(BitstreamFuzz, EveryTruncationOfFabricStreamFailsCleanly) {
  const Fabric f = make_configured_fabric();
  const auto bytes = core::encode_fabric(f);
  const Fabric pristine = make_other_fabric();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Fabric g = pristine;
    Status status;
    EXPECT_NO_THROW(status = core::try_load_fabric(
                        g, std::span<const std::uint8_t>(bytes).first(len)));
    EXPECT_FALSE(status.ok()) << "truncation at " << len << " accepted";
    EXPECT_TRUE(same_config(g, pristine))
        << "truncation at " << len << " modified the fabric";
  }
}

TEST(BitstreamFuzz, EverySingleByteCorruptionOfFabricStreamFailsCleanly) {
  const Fabric f = make_configured_fabric();
  const auto bytes = core::encode_fabric(f);
  const Fabric pristine = make_other_fabric();
  util::Rng rng(7);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    const std::uint8_t masks[] = {
        0x01, 0x80, static_cast<std::uint8_t>(1 + rng.next_below(255))};
    for (const std::uint8_t mask : masks) {
      auto corrupt = bytes;
      corrupt[pos] ^= mask;
      Fabric g = pristine;
      Status status;
      EXPECT_NO_THROW(status = core::try_load_fabric(g, corrupt));
      EXPECT_FALSE(status.ok())
          << "flip at byte " << pos << " mask " << int(mask) << " accepted";
      EXPECT_TRUE(same_config(g, pristine))
          << "flip at byte " << pos << " modified the fabric";
    }
  }
}

// A mutation that keeps the trailing CRC valid can decode into a hostile
// configuration (a column reading an unsourced lfb, an lfb off the array
// edge, abutment contention).  Whatever decodes must be judged by the
// bounded Fabric::check exactly as the whole-array reference judges it,
// and try_elaborate must reject exactly what the reference rejects.
TEST(BitstreamFuzz, DecodedMutationsCheckLikeTheWholeArrayReference) {
  const Fabric f = make_configured_fabric();
  const Fabric other = make_other_fabric();
  const auto bytes = core::encode_fabric(f);
  const auto delta = core::encode_delta(other, f).value();
  util::Rng rng(13);
  int decoded = 0, accepted = 0;
  const auto judge = [&](const Fabric& g) {
    ++decoded;
    if (core::check_test::expect_checks_like_reference(g)) ++accepted;
  };
  for (std::size_t pos = 0; pos + 4 < bytes.size(); ++pos) {
    for (int bit = 0; bit < 9; ++bit) {
      const auto mask = static_cast<std::uint8_t>(
          bit < 8 ? 1u << bit : 1 + rng.next_below(255));
      auto corrupt = bytes;
      corrupt[pos] ^= mask;
      fix_trailer_crc(corrupt);
      Fabric g(f.rows(), f.cols());
      if (core::try_load_fabric(g, corrupt).ok()) judge(g);
    }
  }
  // The delta's frame images: each decoded mutation lands on `other`.
  for (std::size_t pos = core::kDeltaHeaderBytes;
       pos + core::kDeltaTrailerBytes < delta.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = delta;
      corrupt[pos] ^= static_cast<std::uint8_t>(1u << bit);
      fix_trailer_crc(corrupt);
      Fabric g = other;
      if (core::try_apply_delta(g, corrupt).ok()) judge(g);
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, decoded);
}

// ---------- Delta stream ----------------------------------------------------

TEST(BitstreamFuzz, EveryTruncationOfDeltaFailsCleanly) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();
  ASSERT_GT(core::inspect_delta(delta).value().frames, 0u);
  for (std::size_t len = 0; len < delta.size(); ++len) {
    Fabric g = base;
    Status status;
    EXPECT_NO_THROW(status = core::try_apply_delta(
                        g, std::span<const std::uint8_t>(delta).first(len)));
    EXPECT_FALSE(status.ok()) << "truncation at " << len << " accepted";
    EXPECT_TRUE(same_config(g, base))
        << "truncation at " << len << " modified the fabric";
  }
}

TEST(BitstreamFuzz, EverySingleByteCorruptionOfDeltaFailsCleanly) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();
  util::Rng rng(11);
  for (std::size_t pos = 0; pos < delta.size(); ++pos) {
    const std::uint8_t masks[] = {
        0x01, 0x80, static_cast<std::uint8_t>(1 + rng.next_below(255))};
    for (const std::uint8_t mask : masks) {
      auto corrupt = delta;
      corrupt[pos] ^= mask;
      Fabric g = base;
      Status status;
      EXPECT_NO_THROW(status = core::try_apply_delta(g, corrupt));
      EXPECT_FALSE(status.ok())
          << "flip at byte " << pos << " mask " << int(mask) << " accepted";
      EXPECT_TRUE(same_config(g, base))
          << "flip at byte " << pos << " modified the fabric";
    }
  }
}

TEST(BitstreamFuzz, DeltaRejectsWrongBaseAndWrongDimensions) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();

  // Applying to a fabric that is not the encoded base: base-CRC mismatch.
  Fabric not_base = make_other_fabric();
  EXPECT_EQ(core::try_apply_delta(not_base, delta).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(same_config(not_base, make_other_fabric()));

  // Wrong dimensions.
  Fabric small(1, 4);
  EXPECT_EQ(core::try_apply_delta(small, delta).code(),
            StatusCode::kInvalidArgument);

  // Deltas never encode across differing dimensions.
  EXPECT_EQ(core::encode_delta(base, small).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BitstreamFuzz, DeltaRejectsCraftedFrameCorruption) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();
  const auto info = core::inspect_delta(delta).value();
  ASSERT_GE(info.frames, 2u);

  // Out-of-order frames (valid CRC): rejected, fabric untouched.
  {
    auto crafted = delta;
    for (std::size_t i = 0; i < core::kDeltaFrameBytes; ++i)
      std::swap(crafted[core::kDeltaHeaderBytes + i],
                crafted[core::kDeltaHeaderBytes + core::kDeltaFrameBytes + i]);
    fix_trailer_crc(crafted);
    Fabric g = base;
    EXPECT_EQ(core::try_apply_delta(g, crafted).code(),
              StatusCode::kOutOfRange);
    EXPECT_TRUE(same_config(g, base));
  }

  // Frame index beyond the array (valid CRC): rejected, fabric untouched.
  {
    auto crafted = delta;
    crafted[core::kDeltaHeaderBytes + 0] = 0xFF;
    crafted[core::kDeltaHeaderBytes + 1] = 0xFF;
    fix_trailer_crc(crafted);
    Fabric g = base;
    EXPECT_EQ(core::try_apply_delta(g, crafted).code(),
              StatusCode::kOutOfRange);
    EXPECT_TRUE(same_config(g, base));
  }

  // Reserved trit code 0b11 inside a frame image (valid CRC): rejected as
  // data loss, fabric untouched.
  {
    auto crafted = delta;
    crafted[core::kDeltaHeaderBytes + 4] |= 0x03;
    fix_trailer_crc(crafted);
    Fabric g = base;
    const Status s = core::try_apply_delta(g, crafted);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(same_config(g, base));
  }
}

TEST(BitstreamFuzz, DeltaRoundTripIsExactAndEmptyForIdenticalFabrics) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();
  Fabric g = base;
  ASSERT_TRUE(core::try_apply_delta(g, delta).ok());
  EXPECT_TRUE(same_config(g, target));
  EXPECT_EQ(core::encode_fabric(g), core::encode_fabric(target));

  const auto empty = core::encode_delta(target, target).value();
  EXPECT_EQ(core::inspect_delta(empty).value().frames, 0u);
  EXPECT_EQ(empty.size(),
            core::kDeltaHeaderBytes + core::kDeltaTrailerBytes);
  ASSERT_TRUE(core::try_apply_delta(g, empty).ok());
  EXPECT_TRUE(same_config(g, target));
}

TEST(BitstreamFuzz, DeltaRejectsACorruptedResidentBaseImage) {
  const Fabric base = make_configured_fabric();
  const Fabric target = make_other_fabric();
  const auto delta = core::encode_delta(base, target).value();

  // The resident image rots under the delta: one crosspoint trit of a
  // block the delta never touches flips (the runtime-fault analogue of a
  // bit flip in configuration RAM).  The base-CRC binding must catch it.
  Fabric resident = base;
  ASSERT_EQ(resident.block(1, 0).xpoint[0][0], device::BiasLevel::kForce1);
  resident.block(1, 0).xpoint[0][0] = device::BiasLevel::kForce0;
  const Fabric corrupted = resident;

  // Re-derived resident CRC: the mismatch is detected as kDataLoss and no
  // frame of the delta lands (the fabric keeps its corrupted-but-intact
  // configuration — partial application would compound the damage).
  Status status;
  EXPECT_NO_THROW(status = core::try_apply_delta(resident, delta));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(same_config(resident, corrupted));

  // The hot path (caller-tracked CRC) detects it the same way when the
  // caller tells the truth about what is resident.
  EXPECT_NO_THROW(status = core::try_apply_delta(
                      resident, delta, core::fabric_config_crc(resident)));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(same_config(resident, corrupted));

  // An uncorrupted sibling still accepts the same delta bytes: the reject
  // above was the base binding, not the stream.
  Fabric pristine = base;
  EXPECT_TRUE(core::try_apply_delta(pristine, delta).ok());
  EXPECT_TRUE(same_config(pristine, target));
}

}  // namespace
}  // namespace pp
