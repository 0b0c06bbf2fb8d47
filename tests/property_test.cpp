// Property-based tests: randomized and exhaustive invariants that sweep the
// configuration space rather than checking single examples.
#include <gtest/gtest.h>

#include "core/bitstream.h"
#include "core/fabric.h"
#include "map/macros.h"
#include "map/router.h"
#include "map/truth_table.h"
#include "reference_check.h"
#include "util/rng.h"

namespace pp {
namespace {

using core::Fabric;
using sim::Logic;

// Exhaustive LUT property: EVERY 3-variable boolean function maps through
// minimise -> product terms -> OR plane and simulates correctly on the
// fabric for every input combination (256 functions x 8 inputs).
class AllFunctionsLutTest : public ::testing::TestWithParam<int> {};

TEST_P(AllFunctionsLutTest, SixteenFunctionsEachMatchEverywhere) {
  const int base = GetParam() * 16;
  for (int bits = base; bits < base + 16; ++bits) {
    map::TruthTable tt(3);
    for (int i = 0; i < 8; ++i)
      tt.set(static_cast<std::uint8_t>(i), (bits >> i) & 1);
    Fabric f(1, 4);
    const auto lut = map::macros::lut3(f, 0, 0, tt);
    auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    for (int input = 0; input < 8; ++input) {
      for (int v = 0; v < 3; ++v)
        s.set_input(ef.in_line(lut.inputs[v].r, lut.inputs[v].c,
                               lut.inputs[v].line),
                    sim::from_bool((input >> v) & 1));
      ASSERT_TRUE(s.settle());
      const bool got =
          s.value(ef.in_line(lut.out.r, lut.out.c, lut.out.line)) ==
          Logic::k1;
      ASSERT_EQ(got, tt.eval(static_cast<std::uint8_t>(input)))
          << "function " << bits << " input " << input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All256In16Batches, AllFunctionsLutTest,
                         ::testing::Range(0, 16));

// Bitstream integrity: any single corrupted byte is always detected.
class BitstreamCorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(BitstreamCorruptionTest, SingleByteFlipAlwaysDetected) {
  util::Rng rng(GetParam());
  Fabric f(2, 2);
  // Random but valid configuration.
  map::macros::c_element(f, 0, 0);
  f.block(1, 1).xpoint[0][0] = core::BiasLevel::kActive;
  f.block(1, 1).driver[0] = core::DriverCfg::kInvert;
  auto bytes = core::encode_fabric(f);
  const auto pos = rng.next_below(bytes.size());
  const auto mask = static_cast<std::uint8_t>(1 + rng.next_below(255));
  bytes[pos] ^= mask;
  Fabric g(2, 2);
  EXPECT_FALSE(core::try_load_fabric(g, bytes).ok())
      << "flip at byte " << pos << " mask " << int(mask);
}

INSTANTIATE_TEST_SUITE_P(RandomFlips, BitstreamCorruptionTest,
                         ::testing::Range(100, 140));

// Random valid block configs always survive encode/decode.
class BlockRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockRoundTripTest, EncodeDecodeIdentity) {
  util::Rng rng(GetParam());
  core::BlockConfig b;
  for (int r = 0; r < core::kBlockOutputs; ++r) {
    for (int c = 0; c < core::kBlockInputs; ++c) {
      const auto pick = rng.next_below(3);
      b.xpoint[r][c] = pick == 0   ? core::BiasLevel::kActive
                       : pick == 1 ? core::BiasLevel::kForce0
                                   : core::BiasLevel::kForce1;
    }
    b.driver[r] = static_cast<core::DriverCfg>(rng.next_below(4));
  }
  for (int k = 0; k < core::kLfbLines; ++k) {
    b.lfb_src[k] = {static_cast<core::LfbWhich>(rng.next_below(4)),
                    static_cast<std::uint8_t>(rng.next_below(6))};
  }
  for (int c = 0; c < core::kBlockInputs; ++c) {
    // Column sources must reference sourced lfb lines to stay valid.
    const auto pick = rng.next_below(3);
    if (pick == 1 && b.lfb_src[0].which != core::LfbWhich::kOff)
      b.col_src[c] = core::ColSource::kLfb0;
    else if (pick == 2 && b.lfb_src[1].which != core::LfbWhich::kOff)
      b.col_src[c] = core::ColSource::kLfb1;
  }
  const auto decoded = core::try_decode_block(core::encode_block(b));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockRoundTripTest, ::testing::Range(1, 33));

// Bounded configuration check: on random sparse fabrics, valid and not
// (lfb taps off the array edge, rows past the block, columns reading an
// unsourced lfb, abutment contention), Fabric::check, which visits only the
// used blocks, judges exactly as the whole-array reference does.  On the
// fabrics it accepts, every row of an empty block settles to 1 and every
// interior line that no driver drives floats, as in a whole-array
// elaboration.
TEST(FabricCheck, RandomFabricsCheckLikeTheWholeArrayReference) {
  using core::BiasLevel;
  using core::BlockConfig;
  using core::ColSource;
  using core::DriverCfg;
  using core::LfbWhich;
  int accepted = 0, rejected = 0, settled = 0;
  for (std::uint64_t seed = 400; seed < 700; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const int rows = 1 + static_cast<int>(rng.next_below(5));
    const int cols = 1 + static_cast<int>(rng.next_below(6));
    Fabric f(rows, cols);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (rng.next_below(3) != 0) continue;  // most blocks stay empty
        BlockConfig& b = f.block(r, c);
        for (int i = 0; i < core::kBlockOutputs; ++i) {
          for (int j = 0; j < core::kBlockInputs; ++j) {
            const auto pick = rng.next_below(8);
            b.xpoint[i][j] = pick == 0   ? BiasLevel::kActive
                             : pick == 1 ? BiasLevel::kForce0
                                         : BiasLevel::kForce1;
          }
          if (rng.next_below(5) == 0)
            b.driver[i] = static_cast<DriverCfg>(1 + rng.next_below(3));
        }
        for (auto& sel : b.lfb_src)
          if (rng.next_below(4) == 0)
            sel = {static_cast<LfbWhich>(1 + rng.next_below(3)),
                   static_cast<std::uint8_t>(rng.next_below(7))};
        for (auto& src : b.col_src)
          if (rng.next_below(8) == 0)
            src = static_cast<ColSource>(1 + rng.next_below(2));
      }
    }
    if (!core::check_test::expect_checks_like_reference(f)) {
      ++rejected;
      continue;
    }
    ++accepted;
    const auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    for (const sim::NetId pad : ef.primary_inputs())
      s.set_input(pad, sim::from_bool(rng.next_bool()));
    if (!s.settle(100'000)) continue;  // a random lfb loop may oscillate
    ++settled;
    const auto drives = [&](int r, int c, int j) {
      return r >= 0 && r < rows && c >= 0 && c < cols &&
             f.block(r, c).driver[j] != DriverCfg::kOff;
    };
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        if (!f.block(r, c).is_empty()) continue;
        for (int i = 0; i < core::kBlockOutputs; ++i)
          EXPECT_EQ(s.value(ef.row_net(r, c, i)), Logic::k1);
      }
    for (int r = 1; r <= rows; ++r)
      for (int c = 1; c <= cols; ++c) {
        if (r == rows && c == cols) continue;  // the corner has no line
        for (int j = 0; j < core::kBlockInputs; ++j) {
          if (drives(r, c - 1, j) || drives(r - 1, c, j)) continue;
          EXPECT_EQ(s.value(ef.in_line(r, c, j)), Logic::kZ);
        }
      }
  }
  // Both verdicts are exercised, and most accepted fabrics settle.
  EXPECT_GT(accepted, 30);
  EXPECT_GT(rejected, 30);
  EXPECT_GT(settled, accepted / 2);
}

// The hostile shapes the bounded check must still see: contention on a
// line whose reader block is empty, lfb taps off each array edge, and lfb
// taps of an empty partner (valid: the partner's rows are made).
TEST(FabricCheck, HostileShapesCheckLikeTheWholeArrayReference) {
  using core::DriverCfg;
  using core::LfbWhich;
  {
    Fabric f(3, 3);  // (1,0) and (0,1) both drive line 4 of empty (1,1)
    f.block(1, 0).driver[4] = DriverCfg::kBuffer;
    f.block(0, 1).driver[4] = DriverCfg::kPass;
    EXPECT_FALSE(core::check_test::expect_checks_like_reference(f));
    EXPECT_EQ(f.check().message(),
              "input line (1,1,4): driven by both west and north "
              "neighbours\n");
  }
  {
    Fabric f(2, 3);
    f.block(0, 2).lfb_src[1] = {LfbWhich::kEast, 0};
    f.block(1, 0).lfb_src[0] = {LfbWhich::kSouth, 5};
    EXPECT_FALSE(core::check_test::expect_checks_like_reference(f));
    EXPECT_EQ(f.check().message(),
              "block(0,2): lfb1 taps east neighbour at array edge\n"
              "block(1,0): lfb0 taps south neighbour at array edge\n");
  }
  {
    Fabric f(2, 2);
    f.block(0, 0).lfb_src[0] = {LfbWhich::kEast, 2};
    f.block(0, 1).lfb_src[1] = {LfbWhich::kSouth, 4};
    f.block(0, 1).col_src[3] = core::ColSource::kLfb1;
    f.block(0, 1).xpoint[0][3] = core::BiasLevel::kActive;
    EXPECT_TRUE(core::check_test::expect_checks_like_reference(f));
    const auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    ASSERT_TRUE(s.settle());
    EXPECT_EQ(s.value(ef.lfb_net(0, 0, 0)), Logic::k1);
    EXPECT_EQ(s.value(ef.lfb_net(0, 1, 1)), Logic::k1);
    EXPECT_EQ(s.value(ef.row_net(0, 1, 0)), Logic::k0);  // NAND(lfb1 = 1)
  }
}

// Routing property: any in-bounds south-east destination is reachable on an
// empty fabric, and the routed value arrives with correct polarity.
class RouterReachabilityTest : public ::testing::TestWithParam<int> {};

TEST_P(RouterReachabilityTest, RandomSouthEastRoutesDeliver) {
  util::Rng rng(GetParam());
  Fabric f(5, 5);
  const int sr = static_cast<int>(rng.next_below(2));
  const int sc = static_cast<int>(rng.next_below(2));
  const int sl = static_cast<int>(rng.next_below(6));
  const int dr = sr + 1 + static_cast<int>(rng.next_below(3));
  const int dc = sc + 1 + static_cast<int>(rng.next_below(3));
  const int dl = static_cast<int>(rng.next_below(6));
  const bool invert = rng.next_bool();
  // Only drive sources on the external boundary.
  map::SignalAt src{sr == 0 ? 0 : sr, sr == 0 ? sc : 0, sl};
  map::Router router(f);
  const auto res = router.try_route(src, {dr, dc, dl}, invert);
  ASSERT_TRUE(res.ok()) << "seed " << GetParam();
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (bool v : {true, false}) {
    s.set_input(ef.in_line(src.r, src.c, src.line), sim::from_bool(v));
    ASSERT_TRUE(s.settle());
    EXPECT_EQ(s.value(ef.in_line(dr, dc, dl)), sim::from_bool(v ^ invert))
        << "seed " << GetParam() << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterReachabilityTest,
                         ::testing::Range(200, 240));

// Simulator determinism: identical stimulus produces identical results and
// statistics, run to run.
int macros_cols() { return map::macros::ripple_adder_cols(2); }

class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, SameStimulusSameTrace) {
  auto run = [&](std::uint64_t seed) {
    Fabric f(2, macros_cols());
    const auto ports = map::macros::ripple_adder(f, 0, 0, 2);
    auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    util::Rng rng(seed);
    std::vector<char> trace;
    for (int step = 0; step < 20; ++step) {
      for (int i = 0; i < 2; ++i) {
        const bool a = rng.next_bool(), b = rng.next_bool();
        s.set_input(ef.in_line(ports.bits[i].a.r, ports.bits[i].a.c,
                               ports.bits[i].a.line),
                    sim::from_bool(a));
        s.set_input(ef.in_line(ports.bits[i].na.r, ports.bits[i].na.c,
                               ports.bits[i].na.line),
                    sim::from_bool(!a));
        s.set_input(ef.in_line(ports.bits[i].b.r, ports.bits[i].b.c,
                               ports.bits[i].b.line),
                    sim::from_bool(b));
        s.set_input(ef.in_line(ports.bits[i].nb.r, ports.bits[i].nb.c,
                               ports.bits[i].nb.line),
                    sim::from_bool(!b));
      }
      s.set_input(ef.in_line(0, 0, 2), Logic::k0);
      s.set_input(ef.in_line(0, 0, 3), Logic::k1);
      s.settle();
      for (int i = 0; i < 2; ++i)
        trace.push_back(sim::to_char(s.value(
            ef.in_line(ports.bits[i].sum.r, ports.bits[i].sum.c,
                       ports.bits[i].sum.line))));
    }
    return std::pair{trace, s.stats().events_processed};
  };
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto a = run(seed);
  const auto b = run(seed);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest, ::testing::Range(300, 310));

}  // namespace
}  // namespace pp
