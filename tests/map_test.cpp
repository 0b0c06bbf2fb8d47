#include <gtest/gtest.h>

#include <bit>

#include "core/fabric.h"
#include "map/macros.h"
#include "map/netlist.h"
#include "map/router.h"
#include "map/truth_table.h"
#include "util/rng.h"

namespace pp::map {
namespace {

using core::Fabric;
using sim::Logic;

void drive(sim::Simulator& s, const core::ElaboratedFabric& ef,
           const SignalAt& p, bool v) {
  s.set_input(ef.in_line(p.r, p.c, p.line), sim::from_bool(v));
}

bool read1(sim::Simulator& s, const core::ElaboratedFabric& ef,
           const SignalAt& p) {
  return s.value(ef.in_line(p.r, p.c, p.line)) == Logic::k1;
}

// ---------- Truth tables and minimisation -----------------------------------

TEST(TruthTable, SetEvalComplement) {
  TruthTable tt(3);
  tt.set(5, true);
  EXPECT_TRUE(tt.eval(5));
  EXPECT_FALSE(tt.eval(4));
  EXPECT_EQ(tt.count_ones(), 1);
  EXPECT_EQ(tt.complement().count_ones(), 7);
  EXPECT_THROW((void)tt.eval(8), std::out_of_range);
  EXPECT_THROW(TruthTable(7), std::invalid_argument);
}

TEST(TruthTable, MinimizeSingleProductFunctions) {
  // f = a.b over 2 vars: a single prime implicant.
  const auto tt = TruthTable::from_minterms(2, {3});
  const auto cover = minimize(tt);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].care, 3);
  EXPECT_EQ(cover[0].value, 3);
  EXPECT_EQ(cover[0].literals(), 2);
}

TEST(TruthTable, MinimizeOrOfThree) {
  // x + y + z (Fig. 9's function): three single-literal implicants.
  const auto tt =
      TruthTable::from_function(3, [](std::uint8_t i) { return i != 0; });
  const auto cover = minimize(tt);
  EXPECT_EQ(cover.size(), 3u);
  for (const auto& imp : cover) EXPECT_EQ(imp.literals(), 1);
}

TEST(TruthTable, MinimizeParityNeedsAllMinterms) {
  const auto tt = TruthTable::from_function(
      3, [](std::uint8_t i) { return std::popcount(unsigned(i)) & 1; });
  const auto cover = minimize(tt);
  EXPECT_EQ(cover.size(), 4u);  // parity has no mergeable implicants
  for (const auto& imp : cover) EXPECT_EQ(imp.literals(), 3);
}

TEST(TruthTable, MinimizeConstants) {
  const auto zero = TruthTable(2);
  EXPECT_TRUE(minimize(zero).empty());
  const auto one =
      TruthTable::from_function(2, [](std::uint8_t) { return true; });
  const auto cover = minimize(one);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].care, 0);  // tautology
}

TEST(TruthTable, ImplicantToString) {
  Implicant imp{0b101, 0b001};
  EXPECT_EQ(imp.to_string(3), "a./c");
  EXPECT_EQ((Implicant{0, 0}).to_string(3), "1");
}

class MinimizeRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRoundTripTest, CoverEvaluatesToFunction) {
  util::Rng rng(GetParam());
  for (int n = 2; n <= 6; ++n) {
    TruthTable tt(n);
    for (int i = 0; i < tt.num_rows(); ++i)
      tt.set(static_cast<std::uint8_t>(i), rng.next_bool());
    const auto cover = minimize(tt);
    for (int i = 0; i < tt.num_rows(); ++i)
      ASSERT_EQ(eval_cover(cover, static_cast<std::uint8_t>(i)),
                tt.eval(static_cast<std::uint8_t>(i)))
          << "n=" << n << " i=" << i << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFunctions, MinimizeRoundTripTest,
                         ::testing::Range(1, 21));

// ---------- Netlist ----------------------------------------------------------

TEST(Netlist, AdderMatchesArithmetic) {
  const auto nl = make_ripple_adder(4);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      std::vector<bool> in;
      for (int i = 0; i < 4; ++i) in.push_back((a >> i) & 1);
      for (int i = 0; i < 4; ++i) in.push_back((b >> i) & 1);
      in.push_back(false);
      const auto out = nl.evaluate(in);
      int got = 0;
      for (int i = 0; i < 4; ++i) got |= out[i] << i;
      got |= out[4] << 4;
      ASSERT_EQ(got, a + b);
    }
  }
}

TEST(Netlist, ParityMatches) {
  const auto nl = make_parity(5);
  for (int v = 0; v < 32; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 5; ++i) in.push_back((v >> i) & 1);
    EXPECT_EQ(nl.evaluate(in)[0],
              static_cast<bool>(std::popcount(unsigned(v)) & 1));
  }
}

TEST(Netlist, CounterCounts) {
  const auto nl = make_counter(4);
  auto state = nl.make_state();
  for (int cycle = 1; cycle <= 20; ++cycle) {
    const auto out = nl.step({true}, state);
    int v = 0;
    for (int i = 0; i < 4; ++i) v |= out[i] << i;
    // Outputs show the *pre-increment* value; after k steps it reads k-1.
    ASSERT_EQ(v, (cycle - 1) % 16) << "cycle " << cycle;
  }
}

TEST(Netlist, CounterHoldsWhenDisabled) {
  const auto nl = make_counter(3);
  auto state = nl.make_state();
  nl.step({true}, state);
  nl.step({true}, state);
  const auto before = nl.step({false}, state);
  const auto after = nl.step({false}, state);
  EXPECT_EQ(before, after);
}

TEST(Netlist, AccumulatorAccumulates) {
  const auto nl = make_accumulator(8);
  auto state = nl.make_state();
  int model = 0;
  for (int step = 0; step < 10; ++step) {
    const int b = (step * 37 + 11) % 256;
    std::vector<bool> in;
    for (int i = 0; i < 8; ++i) in.push_back((b >> i) & 1);
    const auto out = nl.step(in, state);
    // acc outputs (positions 8..15) show the value before this add.
    int acc = 0;
    for (int i = 0; i < 8; ++i) acc |= out[8 + i] << i;
    ASSERT_EQ(acc, model);
    model = (model + b) % 256;
  }
}

TEST(Netlist, Mux4SelectsCorrectly) {
  const auto nl = make_mux4();
  for (int sel = 0; sel < 4; ++sel) {
    for (int data = 0; data < 16; ++data) {
      const std::vector<bool> in{
          static_cast<bool>(data & 1), static_cast<bool>(data & 2),
          static_cast<bool>(data & 4), static_cast<bool>(data & 8),
          static_cast<bool>(sel & 1), static_cast<bool>(sel & 2)};
      EXPECT_EQ(nl.evaluate(in)[0], static_cast<bool>((data >> sel) & 1));
    }
  }
}

TEST(Netlist, DepthAndCounts) {
  const auto nl = make_parity(8);
  EXPECT_EQ(nl.count(CellKind::kXor), 7);
  EXPECT_EQ(nl.depth(), 7);  // linear chain
  EXPECT_EQ(nl.inputs().size(), 8u);
}

// ---------- Router ----------------------------------------------------------

TEST(Router, StraightEastRoute) {
  Fabric f(1, 5);
  Router router(f);
  const auto res = router.try_route({0, 0, 3}, {0, 4, 3});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->hop_count, 4);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 3), Logic::k1);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 4, 3)), Logic::k1);
}

TEST(Router, DeliversComplementOnRequest) {
  Fabric f(1, 3);
  Router router(f);
  ASSERT_TRUE(router.try_route({0, 0, 0}, {0, 2, 1}, /*invert=*/true).ok());
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 0), Logic::k1);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 2, 1)), Logic::k0);
}

TEST(Router, AvoidsOccupiedRows) {
  Fabric f(1, 3);
  // Occupy rows 0..4 of the middle block; only row 5 is left.
  for (int row = 0; row < 5; ++row) {
    f.block(0, 1).xpoint[row][0] = core::BiasLevel::kActive;
  }
  Router router(f);
  const auto res = router.try_route({0, 0, 2}, {0, 2, 5});
  ASSERT_TRUE(res.ok());
  for (const auto& hop : res->hops)
    if (hop.r == 0 && hop.c == 1) {
      EXPECT_EQ(hop.line, 5);
    }
}

TEST(Router, FailsWhenBlocked) {
  Fabric f(1, 2);
  // Fill every row of the single transit block.
  for (int row = 0; row < 6; ++row)
    f.block(0, 0).xpoint[row][1] = core::BiasLevel::kActive;
  Router router(f);
  EXPECT_FALSE(router.try_route({0, 0, 0}, {0, 1, 0}).ok());
}

TEST(Router, NoBackwardRoutes) {
  Fabric f(2, 2);
  Router router(f);
  // Destination is north-west of the source: unreachable by construction.
  EXPECT_FALSE(router.try_route({1, 1, 0}, {0, 0, 0}).ok());
}

TEST(Router, TwoDisjointRoutes) {
  Fabric f(2, 4);
  Router router(f);
  const auto r1 = router.try_route({0, 0, 0}, {0, 3, 0});
  const auto r2 = router.try_route({0, 0, 1}, {1, 3, 1});
  ASSERT_TRUE(r1.ok() && r2.ok());
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 0), Logic::k1);
  s.set_input(ef.in_line(0, 0, 1), Logic::k0);
  s.settle();
  EXPECT_EQ(s.value(ef.in_line(0, 3, 0)), Logic::k1);
  EXPECT_EQ(s.value(ef.in_line(1, 3, 1)), Logic::k0);
}

// ---------- Macros ----------------------------------------------------------

class Lut3ExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(Lut3ExhaustiveTest, AllInputsMatchTruthTable) {
  // Parameter = the 8-bit truth table of a 3-variable function.
  const int bits = GetParam();
  TruthTable tt(3);
  for (int i = 0; i < 8; ++i)
    tt.set(static_cast<std::uint8_t>(i), (bits >> i) & 1);
  Fabric f(1, 4);
  const auto lut = macros::lut3(f, 0, 0, tt);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (int input = 0; input < 8; ++input) {
    for (int v = 0; v < 3; ++v)
      drive(s, ef, lut.inputs[v], (input >> v) & 1);
    ASSERT_TRUE(s.settle());
    ASSERT_EQ(read1(s, ef, lut.out), tt.eval(static_cast<std::uint8_t>(input)))
        << "function " << bits << " input " << input;
  }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeFunctions, Lut3ExhaustiveTest,
                         ::testing::Values(0x00, 0xFF, 0xFE /* x+y+z */,
                                           0x96 /* parity */,
                                           0xE8 /* majority */,
                                           0x80 /* and3 */, 0x01 /* nor3 */,
                                           0x6A, 0x35, 0xC9, 0x17));

TEST(Macros, DLatchTransparencyAndHold) {
  Fabric f(1, 3);
  const auto lp = macros::d_latch(f, 0, 0);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  drive(s, ef, lp.en, true);
  drive(s, ef, lp.d, true);
  s.settle();
  EXPECT_TRUE(read1(s, ef, lp.q));
  drive(s, ef, lp.d, false);
  s.settle();
  EXPECT_FALSE(read1(s, ef, lp.q));  // transparent follows D
  drive(s, ef, lp.en, false);
  s.settle();
  drive(s, ef, lp.d, true);
  s.settle();
  EXPECT_FALSE(read1(s, ef, lp.q));  // opaque holds
}

TEST(Macros, DffEdgeTriggered) {
  Fabric f(1, 5);
  const auto dp = macros::dff(f, 0, 0);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  auto clock_edge = [&] {
    drive(s, ef, dp.clk, false);
    s.settle();
    drive(s, ef, dp.clk, true);
    s.settle();
  };
  drive(s, ef, dp.clk, false);
  drive(s, ef, dp.d, true);
  s.settle();
  clock_edge();
  EXPECT_TRUE(read1(s, ef, dp.q));
  drive(s, ef, dp.d, false);
  s.settle();
  EXPECT_TRUE(read1(s, ef, dp.q));  // no edge yet
  clock_edge();
  EXPECT_FALSE(read1(s, ef, dp.q));
}

TEST(Macros, DffRandomStreamMatchesBehaviouralModel) {
  Fabric f(1, 5);
  const auto dp = macros::dff(f, 0, 0);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  util::Rng rng(99);
  bool model_q = false;
  bool have_model = false;
  drive(s, ef, dp.clk, false);
  drive(s, ef, dp.d, false);
  s.settle();
  for (int step = 0; step < 40; ++step) {
    const bool d = rng.next_bool();
    drive(s, ef, dp.d, d);
    s.settle();
    drive(s, ef, dp.clk, true);  // rising edge captures d
    s.settle();
    model_q = d;
    have_model = true;
    EXPECT_EQ(read1(s, ef, dp.q), model_q) << "step " << step;
    drive(s, ef, dp.clk, false);
    s.settle();
    if (have_model) {
      EXPECT_EQ(read1(s, ef, dp.q), model_q);
    }
  }
}

TEST(Macros, CElementMatchesBehaviouralGate) {
  Fabric f(1, 3);
  const auto cp = macros::c_element(f, 0, 0);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  // Reference: behavioural C-element in a second circuit.
  sim::Circuit ref;
  const auto ra = ref.add_net(), rb = ref.add_net(), rq = ref.add_net();
  ref.mark_input(ra);
  ref.mark_input(rb);
  ref.add_gate(sim::GateKind::kCElement, {ra, rb}, rq, 2);
  sim::Simulator rs(ref);

  util::Rng rng(123);
  bool a = false, b = false;
  drive(s, ef, cp.a, a);
  drive(s, ef, cp.b, b);
  rs.set_input(ra, sim::from_bool(a));
  rs.set_input(rb, sim::from_bool(b));
  s.settle();
  rs.settle();
  for (int step = 0; step < 60; ++step) {
    if (rng.next_bool())
      a = !a;
    else
      b = !b;
    drive(s, ef, cp.a, a);
    drive(s, ef, cp.b, b);
    rs.set_input(ra, sim::from_bool(a));
    rs.set_input(rb, sim::from_bool(b));
    ASSERT_TRUE(s.settle());
    rs.settle();
    ASSERT_EQ(s.value(ef.in_line(cp.out.r, cp.out.c, cp.out.line)),
              rs.value(rq))
        << "step " << step;
  }
}

class AdderExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(AdderExhaustiveTest, MatchesArithmetic) {
  const int n = GetParam();
  Fabric f(macros::ripple_adder_rows(), macros::ripple_adder_cols(n));
  const auto ap = macros::ripple_adder(f, 0, 0, n);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  const int limit = 1 << n;
  for (int a = 0; a < limit; ++a) {
    for (int b = 0; b < limit; ++b) {
      for (int i = 0; i < n; ++i) {
        drive(s, ef, ap.bits[i].a, (a >> i) & 1);
        drive(s, ef, ap.bits[i].na, !((a >> i) & 1));
        drive(s, ef, ap.bits[i].b, (b >> i) & 1);
        drive(s, ef, ap.bits[i].nb, !((b >> i) & 1));
      }
      drive(s, ef, ap.bits[0].cin, false);
      drive(s, ef, ap.bits[0].ncin, true);
      ASSERT_TRUE(s.settle());
      int got = 0;
      for (int i = 0; i < n; ++i)
        got |= static_cast<int>(read1(s, ef, ap.bits[i].sum)) << i;
      got |= static_cast<int>(read1(s, ef, ap.bits[n - 1].cout)) << n;
      ASSERT_EQ(got, a + b) << n << "-bit " << a << "+" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderExhaustiveTest, ::testing::Values(1, 2, 3, 4));

TEST(Macros, AdderCarryInWorks) {
  Fabric f(2, macros::ripple_adder_cols(2));
  const auto ap = macros::ripple_adder(f, 0, 0, 2);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  // 3 + 0 + cin(1) = 4: sum 00, cout 1.
  for (int i = 0; i < 2; ++i) {
    drive(s, ef, ap.bits[i].a, true);
    drive(s, ef, ap.bits[i].na, false);
    drive(s, ef, ap.bits[i].b, false);
    drive(s, ef, ap.bits[i].nb, true);
  }
  drive(s, ef, ap.bits[0].cin, true);
  drive(s, ef, ap.bits[0].ncin, false);
  s.settle();
  EXPECT_FALSE(read1(s, ef, ap.bits[0].sum));
  EXPECT_FALSE(read1(s, ef, ap.bits[1].sum));
  EXPECT_TRUE(read1(s, ef, ap.bits[1].cout));
}

TEST(Macros, AdderUsesFiveTermsPerBit) {
  // The paper's Fig. 10 claim: "a full adder ... in just five terms".
  Fabric f(2, macros::ripple_adder_cols(1));
  const auto ap = macros::ripple_adder(f, 0, 0, 1);
  EXPECT_EQ(ap.bits[0].terms_used, 5);
  EXPECT_EQ(f.block(0, 0).used_terms(), 5);
}

TEST(Macros, LiteralGenProducesBothPolarities) {
  Fabric f(1, 2);
  macros::literal_gen(f, 0, 0, 3);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (int v = 0; v < 8; ++v) {
    for (int i = 0; i < 3; ++i)
      s.set_input(ef.in_line(0, 0, i), sim::from_bool((v >> i) & 1));
    s.settle();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(s.value(ef.in_line(0, 1, 2 * i)),
                sim::from_bool((v >> i) & 1));
      EXPECT_EQ(s.value(ef.in_line(0, 1, 2 * i + 1)),
                sim::from_bool(!((v >> i) & 1)));
    }
  }
}

TEST(Macros, LiteralGenRejectsTooManyVars) {
  Fabric f(1, 1);
  EXPECT_THROW(macros::literal_gen(f, 0, 0, 4), std::invalid_argument);
}

TEST(Macros, RippleAdderRejectsSmallFabric) {
  Fabric f(1, 3);  // needs 2 rows
  EXPECT_THROW(macros::ripple_adder(f, 0, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace pp::map
