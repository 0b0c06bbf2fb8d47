#include <gtest/gtest.h>

#include <array>

#include "core/bitstream.h"
#include "core/block.h"
#include "core/config_ram.h"
#include "core/fabric.h"
#include "platform/session.h"
#include "util/rng.h"

namespace pp::core {
namespace {

using sim::Logic;

// ---------- Block semantics -------------------------------------------------

TEST(Block, DefaultIsEmpty) {
  BlockConfig b;
  EXPECT_TRUE(b.is_empty());
  EXPECT_EQ(b.active_cells(), 0);
  EXPECT_EQ(b.used_terms(), 0);
  EXPECT_EQ(b.validate(), "");
}

TEST(Block, RowNandSemantics) {
  BlockConfig b;
  b.xpoint[0][0] = BiasLevel::kActive;
  b.xpoint[0][1] = BiasLevel::kActive;
  const std::array<bool, 6> in11{true, true, false, false, false, false};
  const std::array<bool, 6> in10{true, false, false, false, false, false};
  EXPECT_FALSE(block_row_value(b, 0, in11));  // NAND(1,1) = 0
  EXPECT_TRUE(block_row_value(b, 0, in10));   // NAND(1,0) = 1
}

TEST(Block, EmptyRowPullsUp) {
  BlockConfig b;
  const std::array<bool, 6> in{};
  EXPECT_TRUE(block_row_value(b, 0, in));
}

TEST(Block, Force0DisablesRow) {
  BlockConfig b;
  b.xpoint[0][0] = BiasLevel::kActive;
  b.xpoint[0][3] = BiasLevel::kForce0;
  const std::array<bool, 6> in{true, true, true, true, true, true};
  EXPECT_TRUE(block_row_value(b, 0, in));  // forced high despite inputs
}

TEST(Block, DriverValueTable) {
  BlockConfig b;
  b.driver[2] = DriverCfg::kInvert;
  EXPECT_EQ(block_driver_value(b, 2, true), std::optional<bool>(false));
  b.driver[2] = DriverCfg::kBuffer;
  EXPECT_EQ(block_driver_value(b, 2, true), std::optional<bool>(true));
  b.driver[2] = DriverCfg::kPass;
  EXPECT_EQ(block_driver_value(b, 2, false), std::optional<bool>(false));
  b.driver[2] = DriverCfg::kOff;
  EXPECT_EQ(block_driver_value(b, 2, true), std::nullopt);
}

TEST(Block, ActiveCellCounting) {
  BlockConfig b;
  b.xpoint[0][0] = BiasLevel::kActive;
  b.xpoint[1][2] = BiasLevel::kForce0;
  b.driver[0] = DriverCfg::kInvert;
  b.lfb_src[0] = {LfbWhich::kOwn, 1};
  EXPECT_EQ(b.active_cells(), 4);
  EXPECT_EQ(b.used_terms(), 1);  // only row 0 has an active input
}

TEST(Block, ValidateCatchesUnsourcedLfbColumn) {
  BlockConfig b;
  b.col_src[0] = ColSource::kLfb0;  // lfb0 has no source
  EXPECT_NE(b.validate(), "");
  b.lfb_src[0] = {LfbWhich::kOwn, 3};
  EXPECT_EQ(b.validate(), "");
}

TEST(Block, ValidateCatchesBadLfbRow) {
  BlockConfig b;
  b.lfb_src[0] = {LfbWhich::kOwn, 9};
  EXPECT_NE(b.validate(), "");
}

// Property sweep: elaborated single-block fabric matches block_row_value on
// random configurations and all input combinations.
class BlockEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockEquivalenceTest, ElaborationMatchesDigitalModel) {
  util::Rng rng(GetParam());
  Fabric f(1, 2);
  BlockConfig& b = f.block(0, 0);
  for (int row = 0; row < kBlockOutputs; ++row) {
    for (int col = 0; col < kBlockInputs; ++col) {
      const auto pick = rng.next_below(4);
      b.xpoint[row][col] = pick == 0   ? BiasLevel::kActive
                           : pick == 1 ? BiasLevel::kForce0
                                       : BiasLevel::kForce1;
    }
    b.driver[row] = DriverCfg::kBuffer;
  }
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (int input = 0; input < 64; ++input) {
    std::array<bool, kBlockInputs> in{};
    for (int j = 0; j < kBlockInputs; ++j) {
      in[j] = (input >> j) & 1;
      s.set_input(ef.in_line(0, 0, j), sim::from_bool(in[j]));
    }
    ASSERT_TRUE(s.settle());
    for (int row = 0; row < kBlockOutputs; ++row) {
      const bool want = block_row_value(b, row, in);
      EXPECT_EQ(s.value(ef.in_line(0, 1, row)), sim::from_bool(want))
          << "seed=" << GetParam() << " input=" << input << " row=" << row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, BlockEquivalenceTest,
                         ::testing::Range(1, 9));

// ---------- ConfigRam -------------------------------------------------------

TEST(ConfigRam, RoundTripsNontrivialConfig) {
  BlockConfig b;
  b.xpoint[0][0] = BiasLevel::kActive;
  b.xpoint[5][5] = BiasLevel::kForce0;
  b.driver[0] = DriverCfg::kInvert;
  b.driver[5] = DriverCfg::kPass;
  b.col_src[2] = ColSource::kLfb1;
  b.lfb_src[1] = {LfbWhich::kEast, 4};
  const ConfigRam ram = ConfigRam::from_config(b);
  EXPECT_EQ(ram.to_config(), b);
}

TEST(ConfigRam, WordBitAddressing) {
  ConfigRam ram;
  ram.write(3, 4, 2);
  EXPECT_EQ(ram.read(3, 4), 2);
  EXPECT_EQ(ram.trit(3 * 8 + 4), 2);
  EXPECT_THROW(ram.write(8, 0, 1), std::out_of_range);
  EXPECT_THROW(ram.write(0, 0, 3), std::invalid_argument);
}

TEST(ConfigRam, DecodeRejectsBadDriverCode) {
  ConfigRam ram = ConfigRam::from_config(BlockConfig{});
  ram.set_trit(36, 2);  // driver 0 low trit = 2
  ram.set_trit(37, 2);  // driver 0 high trit = 2 -> value 8, invalid
  EXPECT_THROW((void)ram.to_config(), std::invalid_argument);
}

TEST(ConfigRam, DecodeRejectsBadLfbRow) {
  ConfigRam ram = ConfigRam::from_config(BlockConfig{});
  ram.set_trit(54, 1);  // lfb0 which = own
  ram.set_trit(56, 0);
  ram.set_trit(57, 2);  // row = 6, out of range
  EXPECT_THROW((void)ram.to_config(), std::invalid_argument);
}

// ---------- Bitstream -------------------------------------------------------

TEST(Bitstream, BlockImageIs128Bits) {
  // The paper's headline configuration figure (§4).
  EXPECT_EQ(kConfigBits, 128);
  EXPECT_EQ(encode_block(BlockConfig{}).size(), 16u);
}

TEST(Bitstream, BlockRoundTrip) {
  util::Rng rng(5);
  BlockConfig b;
  for (int r = 0; r < kBlockOutputs; ++r) {
    for (int c = 0; c < kBlockInputs; ++c) {
      const auto pick = rng.next_below(3);
      b.xpoint[r][c] = pick == 0   ? BiasLevel::kActive
                       : pick == 1 ? BiasLevel::kForce0
                                   : BiasLevel::kForce1;
    }
    b.driver[r] = static_cast<DriverCfg>(rng.next_below(4));
  }
  const auto decoded = try_decode_block(encode_block(b));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, b);
}

TEST(Bitstream, FabricRoundTripAndCrc) {
  Fabric f(2, 3);
  f.block(0, 0).xpoint[1][1] = BiasLevel::kActive;
  f.block(0, 0).driver[1] = DriverCfg::kBuffer;
  f.block(1, 2).driver[0] = DriverCfg::kInvert;
  auto bytes = encode_fabric(f);
  Fabric g(2, 3);
  ASSERT_TRUE(try_load_fabric(g, bytes).ok());
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_EQ(g.block(r, c), f.block(r, c));
  // Flip a payload bit: CRC must catch it.
  bytes[10] ^= 0x40;
  EXPECT_EQ(try_load_fabric(g, bytes).code(), StatusCode::kDataLoss);
}

TEST(Bitstream, RejectsTruncationAndBadMagic) {
  Fabric f(1, 1);
  auto bytes = encode_fabric(f);
  Fabric g(1, 1);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_EQ(try_load_fabric(g, truncated).code(), StatusCode::kOutOfRange);
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(try_load_fabric(g, bad_magic).code(),
            StatusCode::kInvalidArgument);
}

TEST(Bitstream, RejectsDimensionMismatch) {
  Fabric f(1, 2);
  const auto bytes = encode_fabric(f);
  Fabric g(2, 1);
  EXPECT_EQ(try_load_fabric(g, bytes).code(), StatusCode::kInvalidArgument);
}

TEST(Bitstream, ReservedTritCodeRejected) {
  auto bytes = encode_block(BlockConfig{});
  bytes[0] |= 0x3;  // trit 0 = 0b11 (reserved)
  EXPECT_EQ(try_decode_block(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(Bitstream, Crc32KnownVector) {
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);  // standard check value
}

// ---------- Fabric ----------------------------------------------------------

TEST(Fabric, DimensionsAndAccess) {
  Fabric f(3, 4);
  EXPECT_EQ(f.rows(), 3);
  EXPECT_EQ(f.cols(), 4);
  EXPECT_THROW((void)f.block(3, 0), std::out_of_range);
  EXPECT_THROW(Fabric(0, 1), std::invalid_argument);
}

TEST(Fabric, ValidateCatchesAbutmentContention) {
  Fabric f(2, 2);
  // Both the west block (1,0) and the north block (0,1) drive line 2 of
  // input (1,1).
  f.block(1, 0).driver[2] = DriverCfg::kBuffer;
  f.block(0, 1).driver[2] = DriverCfg::kInvert;
  EXPECT_FALSE(f.check().ok());
  EXPECT_THROW(f.elaborate(), std::invalid_argument);
}

TEST(Fabric, ValidateCatchesLfbAtEdge) {
  Fabric f(1, 1);
  f.block(0, 0).lfb_src[0] = {LfbWhich::kEast, 0};
  EXPECT_FALSE(f.check().ok());
}

TEST(Fabric, PrimaryInputsOnWestAndNorthBoundary) {
  Fabric f(2, 3);
  const auto ef = f.elaborate();
  // West boundary: 2 rows x 6 lines; north boundary: 3 cols x 6 lines,
  // minus the double-counted (0,0) set counted once.
  EXPECT_EQ(ef.primary_inputs().size(),
            static_cast<std::size_t>(2 * 6 + 3 * 6 - 6));
}

TEST(Fabric, ClearResetsEverything) {
  Fabric f(2, 2);
  f.block(1, 1).driver[0] = DriverCfg::kInvert;
  EXPECT_EQ(f.used_blocks(), 1);
  f.clear();
  EXPECT_EQ(f.used_blocks(), 0);
  EXPECT_EQ(f.active_cells(), 0);
}

TEST(Fabric, FeedthroughAcrossBlocks) {
  // in -> block(0,0) row 4 inverting -> block(0,1) row 4 inverting -> out.
  Fabric f(1, 2);
  for (int c = 0; c < 2; ++c) {
    f.block(0, c).xpoint[4][4] = BiasLevel::kActive;
    f.block(0, c).driver[4] = DriverCfg::kInvert;
  }
  // First block reads column 4 from the west boundary.
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 4), Logic::k1);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 2, 4)), Logic::k1);
  s.set_input(ef.in_line(0, 0, 4), Logic::k0);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 2, 4)), Logic::k0);
}

TEST(Fabric, DriverReachesBothEastAndSouth) {
  Fabric f(2, 2);
  f.block(0, 0).xpoint[1][0] = BiasLevel::kActive;
  f.block(0, 0).driver[1] = DriverCfg::kInvert;
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 0), Logic::k1);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 1, 1)), Logic::k1);  // east copy
  EXPECT_EQ(s.value(ef.in_line(1, 0, 1)), Logic::k1);  // south copy
}

TEST(Fabric, PassDriverFasterThanRestoring) {
  const FabricDelays d{};
  Fabric f1(1, 2), f2(1, 2);
  for (auto* f : {&f1, &f2}) {
    f->block(0, 0).xpoint[0][0] = BiasLevel::kActive;
  }
  f1.block(0, 0).driver[0] = DriverCfg::kBuffer;
  f2.block(0, 0).driver[0] = DriverCfg::kPass;
  auto e1 = f1.elaborate(d);
  auto e2 = f2.elaborate(d);
  sim::Simulator s1(e1.circuit()), s2(e2.circuit());
  s1.set_input(e1.in_line(0, 0, 0), Logic::k1);
  s2.set_input(e2.in_line(0, 0, 0), Logic::k1);
  s1.settle();
  s2.settle();
  EXPECT_LT(s2.last_change(e2.in_line(0, 1, 0)),
            s1.last_change(e1.in_line(0, 1, 0)));
}

// ---------- Elaborating only what the configuration uses -------------------

/// A 4x5 array with three configured blocks and one lfb-tapped empty
/// partner: an inverting hop (0,0) -> (0,1) on line 0, and block (2,2),
/// whose column 1 reads lfb0, a tap of row 3 of its empty east partner
/// (2,3), and whose row 2 drives east and south.
Fabric sparse_fabric() {
  Fabric f(4, 5);
  for (int c = 0; c < 2; ++c) {
    f.block(0, c).xpoint[0][0] = BiasLevel::kActive;
    f.block(0, c).driver[0] = DriverCfg::kInvert;
  }
  BlockConfig& b = f.block(2, 2);
  b.lfb_src[0] = {LfbWhich::kEast, 3};
  b.col_src[1] = ColSource::kLfb0;
  b.xpoint[2][1] = BiasLevel::kActive;
  b.driver[2] = DriverCfg::kBuffer;
  return f;
}

TEST(Fabric, ElaboratesOnlyWhatTheConfigurationUses) {
  const auto ef = sparse_fabric().elaborate();
  // 48 west/north boundary lines, the 3 interior lines a driver drives
  // ((1,1,0), (2,3,2), (3,2,2)), 24 rows of the 4 made blocks (including
  // the tapped empty partner), one lfb, const1 and the shared floating
  // net.  Gates: const1, 24 rows, 3 drivers x 2 abutments, one lfb tap.
  // A whole-array elaboration made 296 nets and 128 gates.
  EXPECT_EQ(ef.circuit().net_count(), 78u);
  EXPECT_EQ(ef.circuit().gate_count(), 32u);
  EXPECT_EQ(ef.primary_inputs().size(), 48u);
  // Every unmade row is the one constant-1 net; the tapped partner's rows
  // and the configured blocks' rows are their own nets.
  EXPECT_EQ(ef.row_net(1, 1, 0), ef.row_net(3, 4, 5));
  EXPECT_NE(ef.row_net(2, 3, 3), ef.row_net(1, 1, 0));
  EXPECT_NE(ef.row_net(2, 3, 0), ef.row_net(2, 3, 1));
  // Every unmade line is the one floating net.
  EXPECT_EQ(ef.in_line(2, 1, 4), ef.in_line(4, 0, 3));
  EXPECT_NE(ef.in_line(1, 1, 0), ef.in_line(2, 1, 4));
}

TEST(Fabric, UnmadeRowsAndLinesAnswerWhatTheyWouldSettleTo) {
  const auto ef = sparse_fabric().elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 0), Logic::k1);
  ASSERT_TRUE(s.settle());
  EXPECT_EQ(s.value(ef.in_line(0, 2, 0)), Logic::k1);  // two inversions
  EXPECT_EQ(s.value(ef.in_line(1, 1, 0)), Logic::k1);  // south copy
  // An empty block's row settles to 1, made or not.
  EXPECT_EQ(s.value(ef.row_net(1, 1, 0)), Logic::k1);
  EXPECT_EQ(s.value(ef.row_net(3, 4, 5)), Logic::k1);
  EXPECT_EQ(s.value(ef.row_net(2, 3, 3)), Logic::k1);
  // The lfb taps that constant row, so row 2 of (2,2) is NAND(1) = 0.
  EXPECT_EQ(s.value(ef.lfb_net(2, 2, 0)), Logic::k1);
  EXPECT_EQ(s.value(ef.in_line(2, 3, 2)), Logic::k0);
  EXPECT_EQ(s.value(ef.in_line(3, 2, 2)), Logic::k0);
  // An untouched line floats: interior, south/east boundary, or an
  // undriven input pad.
  EXPECT_EQ(s.value(ef.in_line(2, 1, 4)), Logic::kZ);
  EXPECT_EQ(s.value(ef.in_line(4, 0, 3)), Logic::kZ);
  EXPECT_EQ(s.value(ef.in_line(1, 5, 5)), Logic::kZ);
  EXPECT_EQ(s.value(ef.in_line(3, 0, 1)), Logic::kZ);
  // Addressing is unchanged: the corner has no line, an lfb without a
  // source has no net, and out-of-range coordinates still throw.
  EXPECT_EQ(ef.in_line(4, 5, 0), sim::kNoNet);
  EXPECT_EQ(ef.lfb_net(2, 2, 1), sim::kNoNet);
  EXPECT_EQ(ef.lfb_net(1, 1, 0), sim::kNoNet);
  EXPECT_THROW((void)ef.in_line(5, 0, 0), std::out_of_range);
  EXPECT_THROW((void)ef.row_net(4, 0, 0), std::out_of_range);
  EXPECT_THROW((void)ef.lfb_net(0, 5, 0), std::out_of_range);
}

TEST(Fabric, PortsOnUntouchedLinesAnswerAsWholeArrayElaboration) {
  using platform::PortBinding;
  using platform::RunOptions;
  const std::vector<platform::InputVector> vectors = {{false}, {true}};
  // An observer on an untouched interior line reads Z, so a batch that
  // returns it fails as an X output.
  {
    auto s = platform::Session::from_fabric(
        sparse_fabric(), {PortBinding{"a", {0, 0, 0}}},
        {PortBinding{"y", {0, 2, 0}}, PortBinding{"stray", {2, 1, 4}}});
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    EXPECT_EQ(s->peek("stray").value(), Logic::kZ);
    ASSERT_TRUE(s->poke("a", true).ok());
    ASSERT_TRUE(s->settle().ok());
    EXPECT_EQ(s->peek("y").value(), Logic::k1);
    EXPECT_EQ(s->peek("stray").value(), Logic::kZ);
    for (const auto engine :
         {platform::Engine::kCompiled, platform::Engine::kEventDriven})
      EXPECT_EQ(s->run_vectors(vectors, RunOptions{.engine = engine})
                    .status()
                    .code(),
                StatusCode::kInternal);
  }
  // An input bound to an untouched interior line is no primary input: the
  // session loads, reads Z there, and no engine accepts the binding.
  {
    auto s = platform::Session::from_fabric(
        sparse_fabric(), {PortBinding{"stray_in", {2, 1, 4}}},
        {PortBinding{"y", {0, 2, 0}}});
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    EXPECT_EQ(s->peek("stray_in").value(), Logic::kZ);
    EXPECT_EQ(s->peek("y").value(), Logic::kX);  // its pad is undriven
    for (const auto engine :
         {platform::Engine::kCompiled, platform::Engine::kEventDriven})
      EXPECT_EQ(s->run_vectors(vectors, RunOptions{.engine = engine})
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace pp::core
