// Tests for the extension modules: PLA block pairs, static timing,
// bit-serial arithmetic, and the handshake protocol checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "async/micropipeline.h"
#include "async/protocol.h"
#include "core/timing.h"
#include "map/bitserial.h"
#include "map/macros.h"
#include "map/pla.h"
#include "util/rng.h"

namespace pp {
namespace {

using core::Fabric;
using map::SignalAt;
using map::TruthTable;
using sim::Logic;

// ---------- PLA block pair ----------------------------------------------------

TEST(PlaPair, SharedTermsAreDeduplicated) {
  // f0 = a.b, f1 = a.b + /a./b: the a.b term must be pooled once.
  const auto f0 = TruthTable::from_minterms(2, {3});
  const auto f1 = TruthTable::from_minterms(2, {0, 3});
  const auto pool = map::pooled_cover({f0, f1});
  EXPECT_EQ(pool.size(), 2u);
}

TEST(PlaPair, MultiOutputSimulatesCorrectly) {
  // Three outputs over (a,b,c) whose pooled cover fits six terms:
  // majority (ab, ac, bc), AND3 (abc), NOR3 (/a./b./c) -> 5 shared terms.
  const auto maj = TruthTable::from_function(
      3, [](std::uint8_t i) { return std::popcount(unsigned(i)) >= 2; });
  const auto and3 =
      TruthTable::from_function(3, [](std::uint8_t i) { return i == 7; });
  const auto nor3 =
      TruthTable::from_function(3, [](std::uint8_t i) { return i == 0; });
  Fabric f(1, 4);
  const auto pla = map::pla_pair(f, 0, 0, {maj, and3, nor3});
  EXPECT_LE(pla.terms_used, 6);
  EXPECT_LE(pla.terms_used, pla.terms_unshared);

  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (int input = 0; input < 8; ++input) {
    for (int v = 0; v < 3; ++v)
      s.set_input(ef.in_line(0, 0, v), sim::from_bool((input >> v) & 1));
    ASSERT_TRUE(s.settle());
    const TruthTable* fns[] = {&maj, &and3, &nor3};
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(s.value(ef.in_line(pla.outputs[k].r, pla.outputs[k].c,
                                   pla.outputs[k].line)),
                sim::from_bool(fns[k]->eval(static_cast<std::uint8_t>(input))))
          << "fn " << k << " input " << input;
    }
  }
}

TEST(PlaPair, ConstantOutputs) {
  const auto zero = TruthTable(2);
  const auto one =
      TruthTable::from_function(2, [](std::uint8_t) { return true; });
  Fabric f(1, 4);
  const auto pla = map::pla_pair(f, 0, 0, {zero, one});
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(0, 0, 0), Logic::k1);
  s.set_input(ef.in_line(0, 0, 1), Logic::k0);
  ASSERT_TRUE(s.settle());
  EXPECT_EQ(s.value(ef.in_line(pla.outputs[0].r, pla.outputs[0].c,
                               pla.outputs[0].line)),
            Logic::k0);
  EXPECT_EQ(s.value(ef.in_line(pla.outputs[1].r, pla.outputs[1].c,
                               pla.outputs[1].line)),
            Logic::k1);
}

TEST(PlaPair, RejectsOverflowAndBadSignatures) {
  // 3-var parity + its complement need 8 distinct minterm products.
  const auto par = TruthTable::from_function(
      3, [](std::uint8_t i) { return std::popcount(unsigned(i)) & 1; });
  Fabric f(1, 4);
  EXPECT_THROW(map::pla_pair(f, 0, 0, {par, par.complement()}),
               std::invalid_argument);
  const auto two = TruthTable::from_minterms(2, {1});
  EXPECT_THROW(map::pla_pair(f, 0, 0, {par, two}), std::invalid_argument);
  EXPECT_THROW(map::pla_pair(f, 0, 0, {}), std::invalid_argument);
}

class PlaRandomPairTest : public ::testing::TestWithParam<int> {};

TEST_P(PlaRandomPairTest, RandomCompatiblePairsMatch) {
  util::Rng rng(GetParam());
  // Build random function pairs until one fits a 6-term pool, then check
  // it exhaustively.
  for (int attempt = 0; attempt < 50; ++attempt) {
    TruthTable f0(3), f1(3);
    for (int i = 0; i < 8; ++i) {
      f0.set(static_cast<std::uint8_t>(i), rng.next_bool(0.4));
      f1.set(static_cast<std::uint8_t>(i), rng.next_bool(0.4));
    }
    if (map::pooled_cover({f0, f1}).size() > 6) continue;
    Fabric f(1, 4);
    const auto pla = map::pla_pair(f, 0, 0, {f0, f1});
    auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    for (int input = 0; input < 8; ++input) {
      for (int v = 0; v < 3; ++v)
        s.set_input(ef.in_line(0, 0, v), sim::from_bool((input >> v) & 1));
      ASSERT_TRUE(s.settle());
      ASSERT_EQ(s.value(ef.in_line(pla.outputs[0].r, pla.outputs[0].c,
                                   pla.outputs[0].line)),
                sim::from_bool(f0.eval(static_cast<std::uint8_t>(input))));
      ASSERT_EQ(s.value(ef.in_line(pla.outputs[1].r, pla.outputs[1].c,
                                   pla.outputs[1].line)),
                sim::from_bool(f1.eval(static_cast<std::uint8_t>(input))));
    }
    return;  // one verified pair per seed is enough
  }
  GTEST_SKIP() << "no compatible random pair found for this seed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlaRandomPairTest, ::testing::Range(1, 13));

// ---------- Static timing ------------------------------------------------------

TEST(Timing, ChainAccumulatesDelay) {
  sim::Circuit c;
  const auto a = c.add_net("a");
  c.mark_input(a);
  const auto n1 = c.add_net(), n2 = c.add_net(), n3 = c.add_net();
  c.add_gate(sim::GateKind::kNot, {a}, n1, 10);
  c.add_gate(sim::GateKind::kNot, {n1}, n2, 15);
  c.add_gate(sim::GateKind::kNot, {n2}, n3, 20);
  const auto rep = core::analyze_timing(c);
  EXPECT_EQ(rep.arrival[n1], 10u);
  EXPECT_EQ(rep.arrival[n2], 25u);
  EXPECT_EQ(rep.arrival[n3], 45u);
  EXPECT_EQ(rep.critical_path_ps, 45u);
  EXPECT_EQ(rep.critical_net, n3);
  EXPECT_EQ(rep.loop_nets, 0);
}

TEST(Timing, StateGatesCutPaths) {
  sim::Circuit c;
  const auto d = c.add_net(), clk = c.add_net();
  c.mark_input(d);
  c.mark_input(clk);
  const auto q = c.add_net(), y = c.add_net();
  c.add_gate(sim::GateKind::kDff, {d, clk}, q, 5);
  c.add_gate(sim::GateKind::kNot, {q}, y, 10);
  const auto rep = core::analyze_timing(c);
  EXPECT_EQ(rep.arrival[q], 0u);   // DFF output is a start point
  EXPECT_EQ(rep.arrival[y], 10u);  // one gate from the start point
}

TEST(Timing, DetectsCombinationalLoops) {
  sim::Circuit c;
  const auto s = c.add_net(), r = c.add_net();
  c.mark_input(s);
  c.mark_input(r);
  const auto q = c.add_net(), qn = c.add_net(), out = c.add_net();
  c.add_gate(sim::GateKind::kNand, {s, qn}, q, 10);
  c.add_gate(sim::GateKind::kNand, {r, q}, qn, 10);
  c.add_gate(sim::GateKind::kNot, {q}, out, 7);
  const auto rep = core::analyze_timing(c);
  EXPECT_TRUE(rep.in_loop[q]);
  EXPECT_TRUE(rep.in_loop[qn]);
  EXPECT_TRUE(rep.in_loop[out]);  // downstream of a loop
  EXPECT_GE(rep.loop_nets, 3);
}

TEST(Timing, BoundsSimulatedRippleDelay) {
  // Static critical path of the 8-bit adder must upper-bound (and be close
  // to) the simulated worst-case ripple.
  const int n = 8;
  Fabric f(2, map::macros::ripple_adder_cols(n));
  const auto ports = map::macros::ripple_adder(f, 0, 0, n);
  auto ef = f.elaborate();
  const auto rep = core::analyze_timing(ef.circuit());
  EXPECT_EQ(rep.loop_nets, 0);  // the adder is pure combinational logic
  EXPECT_GT(rep.critical_path_ps, 0u);

  sim::Simulator s(ef.circuit());
  auto in = [&](const SignalAt& p, bool v) {
    s.set_input(ef.in_line(p.r, p.c, p.line), sim::from_bool(v));
  };
  for (int i = 0; i < n; ++i) {
    in(ports.bits[i].a, true);
    in(ports.bits[i].na, false);
    in(ports.bits[i].b, false);
    in(ports.bits[i].nb, true);
  }
  in(ports.bits[0].cin, false);
  in(ports.bits[0].ncin, true);
  s.settle();
  in(ports.bits[0].b, true);
  in(ports.bits[0].nb, false);
  const auto t0 = s.now();
  s.settle();
  const auto cout_net =
      ef.in_line(ports.bits[n - 1].cout.r, ports.bits[n - 1].cout.c,
                 ports.bits[n - 1].cout.line);
  const auto simulated = s.last_change(cout_net) - t0;
  EXPECT_LE(simulated, rep.critical_path_ps);
  EXPECT_GE(simulated, rep.critical_path_ps / 2);  // and not wildly loose
}

TEST(Timing, FabricLatchLoopsAreFlagged) {
  Fabric f(1, 3);
  map::macros::d_latch(f, 0, 0);
  auto ef = f.elaborate();
  const auto rep = core::analyze_timing(ef.circuit());
  EXPECT_GT(rep.loop_nets, 0);  // the cross-coupled output pair
}

/// The iterative longest-path relaxation analyze_timing used to run, kept
/// as the oracle for the one-pass analysis: Jacobi sweeps until no arrival
/// changes (a DAG settles within #nets sweeps); if arrivals are still
/// growing after #nets + 2 sweeps, the nets still changing are loop
/// members, and loop membership is propagated forward to everything
/// downstream.  O(depth x (nets + pins)).
core::TimingReport relaxation_timing(const sim::Circuit& ckt) {
  using sim::GateKind;
  const auto nnets = static_cast<std::uint32_t>(ckt.net_count());
  core::TimingReport rep;
  rep.arrival.assign(nnets, 0);
  rep.in_loop.assign(nnets, false);
  std::vector<std::vector<sim::GateId>> driver_of(nnets);
  for (sim::GateId g = 0; g < ckt.gate_count(); ++g) {
    const GateKind k = ckt.gate(g).kind;
    if (k == GateKind::kDff || k == GateKind::kLatch ||
        k == GateKind::kCElement || k == GateKind::kConst0 ||
        k == GateKind::kConst1)
      continue;
    driver_of[ckt.gate(g).output].push_back(g);
  }
  auto relax = [&](sim::NetId n) {
    sim::SimTime best = 0;
    for (sim::GateId g : driver_of[n]) {
      const sim::Gate& gate = ckt.gate(g);
      sim::SimTime in_arrival = 0;
      for (sim::NetId in : gate.inputs)
        in_arrival = std::max(in_arrival, rep.arrival[in]);
      best = std::max(best, in_arrival + gate.delay_ps);
    }
    return best;
  };
  bool changed = true;
  std::vector<sim::SimTime> next = rep.arrival;
  for (std::uint32_t iter = 0; changed && iter <= nnets + 1; ++iter) {
    changed = false;
    for (sim::NetId n = 0; n < nnets; ++n) {
      next[n] = relax(n);
      if (next[n] != rep.arrival[n]) changed = true;
    }
    rep.arrival.swap(next);
  }
  if (changed) {
    for (sim::NetId n = 0; n < nnets; ++n)
      if (relax(n) != rep.arrival[n]) rep.in_loop[n] = true;
    bool grow = true;
    for (std::uint32_t guard = 0; grow && guard++ <= nnets;) {
      grow = false;
      for (sim::NetId n = 0; n < nnets; ++n) {
        if (rep.in_loop[n]) continue;
        for (sim::GateId g : driver_of[n])
          for (sim::NetId in : ckt.gate(g).inputs)
            if (rep.in_loop[in] && !rep.in_loop[n]) {
              rep.in_loop[n] = true;
              grow = true;
            }
      }
    }
    for (sim::NetId n = 0; n < nnets; ++n)
      if (rep.in_loop[n]) {
        rep.arrival[n] = 0;
        ++rep.loop_nets;
      }
  }
  for (sim::NetId n = 0; n < nnets; ++n)
    if (rep.arrival[n] > rep.critical_path_ps) {
      rep.critical_path_ps = rep.arrival[n];
      rep.critical_net = n;
    }
  return rep;
}

/// A random gate-level circuit of up to 40 nets: primary inputs, NAND, NOT
/// and XOR gates, nets with one to three 3-state drivers, DFFs, constants
/// and undriven nets.  Gate delays run 1..500 ps, with one in ten requested
/// as 0 (which Circuit::add_gate raises to 1).  Pins mostly read an earlier
/// net; the per-circuit chance of reading any net instead sets how loopy
/// it is, from a DAG to a tangle of cycles.
sim::Circuit random_circuit(util::Rng& rng) {
  using sim::GateKind;
  sim::Circuit c;
  const auto nnets = static_cast<sim::NetId>(2 + rng.next_below(39));
  for (sim::NetId n = 0; n < nnets; ++n) c.add_net();
  const double back_pin = rng.next_bool(0.3) ? 0.0 : 0.25 * rng.next_double();
  auto pin = [&](sim::NetId n) {
    const bool any = n == 0 || rng.next_bool(back_pin);
    return static_cast<sim::NetId>(rng.next_below(any ? nnets : n));
  };
  auto pins = [&](sim::NetId n, std::uint64_t count) {
    std::vector<sim::NetId> ins;
    for (std::uint64_t i = 0; i < count; ++i) ins.push_back(pin(n));
    return ins;
  };
  auto delay = [&]() -> sim::SimTime {
    return rng.next_bool(0.1) ? 0 : 1 + rng.next_below(500);
  };
  for (sim::NetId n = 0; n < nnets; ++n) {
    switch (rng.next_below(8)) {
      case 0: c.mark_input(n); break;
      case 1:
        c.add_gate(GateKind::kNand, pins(n, 1 + rng.next_below(3)), n,
                   delay());
        break;
      case 2: c.add_gate(GateKind::kNot, pins(n, 1), n, delay()); break;
      case 3:
        c.add_gate(GateKind::kXor, pins(n, 2 + rng.next_below(2)), n,
                   delay());
        break;
      case 4:
        for (std::uint64_t d = 1 + rng.next_below(3); d > 0; --d)
          c.add_gate(rng.next_bool() ? GateKind::kTriBuf : GateKind::kTriInv,
                     pins(n, 2), n, delay());
        break;
      case 5:
        c.add_gate(GateKind::kDff, pins(n, 2 + rng.next_below(2)), n,
                   delay());
        break;
      case 6:
        c.add_gate(rng.next_bool() ? GateKind::kConst1 : GateKind::kConst0,
                   {}, n, delay());
        break;
      default: break;  // undriven
    }
  }
  return c;
}

void expect_same_report(const core::TimingReport& got,
                        const core::TimingReport& want) {
  EXPECT_EQ(got.arrival, want.arrival);
  EXPECT_EQ(got.in_loop, want.in_loop);
  EXPECT_EQ(got.loop_nets, want.loop_nets);
  EXPECT_EQ(got.critical_path_ps, want.critical_path_ps);
  EXPECT_EQ(got.critical_net, want.critical_net);
}

TEST(Timing, OnePassMatchesRelaxationOnRandomCircuits) {
  int with_loops = 0;
  constexpr int kCircuits = 1500;
  for (int seed = 0; seed < kCircuits; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(7000 + seed);
    const sim::Circuit c = random_circuit(rng);
    const auto want = relaxation_timing(c);
    expect_same_report(core::analyze_timing(c), want);
    if (want.loop_nets > 0) ++with_loops;
    if (HasFailure()) break;
  }
  // Both regimes are exercised: DAGs and circuits with cycles.
  EXPECT_GT(with_loops, kCircuits / 5);
  EXPECT_LT(with_loops, kCircuits * 4 / 5);
}

TEST(Timing, OnePassMatchesRelaxationOnFabrics) {
  // Elaborated fabrics: a routed ripple adder (a deep DAG) and latches
  // (cross-coupled NAND loops feeding downstream logic).
  Fabric adder(2, map::macros::ripple_adder_cols(4));
  map::macros::ripple_adder(adder, 0, 0, 4);
  Fabric latches(3, 3);
  map::macros::d_latch(latches, 0, 0);
  map::macros::d_latch(latches, 2, 0);
  for (const Fabric* f : {&adder, &latches}) {
    const auto ef = f->elaborate();
    expect_same_report(core::analyze_timing(ef.circuit()),
                       relaxation_timing(ef.circuit()));
  }
}

// ---------- Bit-serial adder ----------------------------------------------------

class SerialAdderTest : public ::testing::TestWithParam<int> {};

TEST_P(SerialAdderTest, RandomWordsMatchArithmetic) {
  util::Rng rng(GetParam());
  Fabric f(2, 3);
  const auto ports = map::serial_adder(f, 0, 0);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  for (int trial = 0; trial < 10; ++trial) {
    const int bits = 4 + static_cast<int>(rng.next_below(29));
    const std::uint64_t a = rng.next_bits(bits);
    const std::uint64_t b = rng.next_bits(bits);
    const auto got = map::serial_add(s, ef, ports, a, b, bits);
    const std::uint64_t want = (a + b) & ((1ull << bits) - 1);
    ASSERT_EQ(got, want) << "bits=" << bits << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialAdderTest, ::testing::Range(40, 48));

TEST(SerialAdder, ConstantHardwareAnyWordLength) {
  Fabric f(2, 3);
  const auto ports = map::serial_adder(f, 0, 0);
  EXPECT_EQ(ports.blocks_used, 3);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  // 64-bit addition on 3 blocks of hardware.
  EXPECT_EQ(map::serial_add(s, ef, ports, 0xDEADBEEFCAFEBABEull,
                            0x0123456789ABCDEFull, 64),
            0xDEADBEEFCAFEBABEull + 0x0123456789ABCDEFull);
}

// ---------- Protocol checker -----------------------------------------------------

TEST(ProtocolChecker, CleanMicropipelineHasNoViolations) {
  async::MicropipelineParams p;
  p.stages = 3;
  p.width = 4;
  sim::Circuit ckt;
  const auto ports = async::build_micropipeline(ckt, p);
  sim::Simulator s(ckt);
  async::BundledChannelChecker checker(s, ports.req_out, ports.ack_out,
                                       ports.data_out);
  const auto stats = async::run_tokens(s, ports, p.width, 12);
  s.run_until(s.now() + 2000);  // drain the final acknowledge event
  EXPECT_EQ(stats.tokens_received, 12);
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().front().what;
  EXPECT_EQ(checker.tokens_observed(), 12);
}

TEST(ProtocolChecker, CatchesAckWithoutRequest) {
  sim::Circuit c;
  const auto req = c.add_net("req"), ack = c.add_net("ack"),
             d = c.add_net("d");
  for (auto n : {req, ack, d}) c.mark_input(n);
  sim::Simulator s(c);
  async::BundledChannelChecker checker(s, req, ack, {d});
  // Establish binary baselines (initialisation edges are exempt) ...
  for (auto n : {req, ack, d}) s.set_input(n, Logic::k0);
  s.settle();
  // ... then acknowledge with no request outstanding.
  s.set_input(ack, Logic::k1);
  s.settle();
  ASSERT_FALSE(checker.violations().empty());
}

TEST(ProtocolChecker, CatchesBundlingViolation) {
  sim::Circuit c;
  const auto req = c.add_net("req"), ack = c.add_net("ack"),
             d = c.add_net("d");
  for (auto n : {req, ack, d}) c.mark_input(n);
  sim::Simulator s(c);
  async::BundledChannelChecker checker(s, req, ack, {d});
  for (auto n : {req, ack, d}) s.set_input_at(n, Logic::k0, 0);
  s.run_until(5);
  s.set_input_at(d, Logic::k1, 10);
  s.set_input_at(req, Logic::k1, 50);
  s.set_input_at(d, Logic::k0, 60);  // data moves mid-transaction
  s.set_input_at(ack, Logic::k1, 100);
  s.run_until(200);
  bool found = false;
  for (const auto& v : checker.violations())
    if (v.what.find("bundling") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(ProtocolChecker, CatchesDoubleRequest) {
  sim::Circuit c;
  const auto req = c.add_net("req"), ack = c.add_net("ack"),
             d = c.add_net("d");
  for (auto n : {req, ack, d}) c.mark_input(n);
  sim::Simulator s(c);
  async::BundledChannelChecker checker(s, req, ack, {d});
  for (auto n : {req, ack, d}) s.set_input_at(n, Logic::k0, 0);
  s.run_until(5);
  s.set_input_at(req, Logic::k1, 10);
  s.set_input_at(req, Logic::k0, 30);  // second edge before any ack
  s.run_until(100);
  bool found = false;
  for (const auto& v : checker.violations())
    if (v.what.find("outstanding") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pp
