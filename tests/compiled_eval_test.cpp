// sim::Evaluator engines: levelization, the bit-parallel CompiledEval
// backend and its program passes (constant folding, polarity-aware
// copy-propagation), and the differential property test pitting it
// against the settled event-driven Simulator — bit-for-bit, X propagation
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fold_circuits.h"
#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "sim/logic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace pp::sim {
namespace {

// ---------- packed encoding -------------------------------------------------

TEST(PackedBits, LaneRoundTripAndCanonicalForm) {
  PackedBits p;
  set_lane(p, 0, Logic::k1);
  set_lane(p, 1, Logic::k0);
  set_lane(p, 2, Logic::kX);
  set_lane(p, 63, Logic::kZ);  // Z collapses into the unknown plane
  EXPECT_EQ(get_lane(p, 0), Logic::k1);
  EXPECT_EQ(get_lane(p, 1), Logic::k0);
  EXPECT_EQ(get_lane(p, 2), Logic::kX);
  EXPECT_EQ(get_lane(p, 63), Logic::kX);
  EXPECT_EQ(p.value & p.unknown, 0u);  // canonical: value 0 where unknown
  set_lane(p, 2, Logic::k1);           // overwrite clears the unknown bit
  EXPECT_EQ(get_lane(p, 2), Logic::k1);
}

// ---------- levelization ----------------------------------------------------

TEST(Levelize, ChainLevelsAndOrder) {
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId b = c.add_net("b"), d = c.add_net("d"), e = c.add_net("e");
  const GateId g0 = c.add_gate(GateKind::kNot, {a}, b);
  const GateId g1 = c.add_gate(GateKind::kNot, {b}, d);
  const GateId g2 = c.add_gate(GateKind::kAnd, {a, d}, e);
  auto lm = levelize(c);
  ASSERT_TRUE(lm.ok()) << lm.status().to_string();
  EXPECT_EQ(lm->gate_level[g0], 0u);
  EXPECT_EQ(lm->gate_level[g1], 1u);
  EXPECT_EQ(lm->gate_level[g2], 2u);
  EXPECT_EQ(lm->max_level, 2u);
  EXPECT_EQ(lm->order.size(), 3u);
}

TEST(Levelize, RejectsCombinationalCycle) {
  // Cross-coupled NAND latch: the classic combinational cycle.
  Circuit c;
  const NetId s = c.add_net("s"), r = c.add_net("r");
  c.mark_input(s);
  c.mark_input(r);
  const NetId q = c.add_net("q"), nq = c.add_net("nq");
  c.add_gate(GateKind::kNand, {s, nq}, q);
  c.add_gate(GateKind::kNand, {r, q}, nq);
  auto lm = levelize(c);
  EXPECT_EQ(lm.status().code(), StatusCode::kFailedPrecondition);
}

// ---------- CompiledEval rejection paths ------------------------------------

TEST(CompiledEval, RejectsCycleBehaviouralAndDynamicTristate) {
  {
    Circuit c;
    const NetId a = c.add_net("a");
    c.mark_input(a);
    const NetId q = c.add_net("q");
    c.add_gate(GateKind::kOr, {a, q}, q);  // self-loop
    EXPECT_EQ(CompiledEval::compile(c, {a}, {q}).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    Circuit c;
    const NetId d = c.add_net("d"), clk = c.add_net("clk");
    c.mark_input(d);
    c.mark_input(clk);
    const NetId q = c.add_net("q");
    c.add_gate(GateKind::kDff, {d, clk}, q);
    EXPECT_EQ(CompiledEval::compile(c, {d, clk}, {q}).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // Enable driven by a primary input: contention is decided per vector,
    // which the two-plane encoding cannot express.
    Circuit c;
    const NetId d = c.add_net("d"), en = c.add_net("en");
    c.mark_input(d);
    c.mark_input(en);
    const NetId y = c.add_net("y");
    c.add_gate(GateKind::kTriBuf, {d, en}, y);
    EXPECT_EQ(CompiledEval::compile(c, {d, en}, {y}).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

// ---------- constant folding ------------------------------------------------

TEST(CompiledEval, FoldsConstantEnabledTristateStructure) {
  // The shape fabric elaboration emits: a const-1 enable line, always-on
  // drivers, a released driver, and a const row.  Everything but the two
  // live gates folds away.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId one = c.add_net("one");
  c.add_gate(GateKind::kConst1, {}, one);
  const NetId zero = c.add_net("zero");
  c.add_gate(GateKind::kConst0, {}, zero);
  const NetId line = c.add_net("line");
  c.add_gate(GateKind::kTriInv, {a, one}, line);   // always-on inverter
  c.add_gate(GateKind::kTriBuf, {a, zero}, line);  // released: resolves away
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kNand, {line, one}, y);
  auto eval = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  // 5 gates compile down to two instructions: NOT(a) and NAND(line, const1).
  EXPECT_LE(eval->instruction_count(), 2u);

  std::vector<PackedBits> in(1), out(1);
  set_lane(in[0], 0, Logic::k0);
  set_lane(in[0], 1, Logic::k1);
  set_lane(in[0], 2, Logic::kX);
  ASSERT_TRUE(eval->eval_packed(in, out, 3).ok());
  EXPECT_EQ(get_lane(out[0], 0), Logic::k0);  // NAND(NOT(0), 1) = NAND(1,1)
  EXPECT_EQ(get_lane(out[0], 1), Logic::k1);  // NAND(NOT(1), 1) = NAND(0,1)
  EXPECT_EQ(get_lane(out[0], 2), Logic::kX);  // X propagates
}

TEST(CompiledEval, DominantConstantsShortCircuitX) {
  // NAND(X, 0) must be 1 (dominant 0) even though another input is unknown.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId zero = c.add_net("zero");
  c.add_gate(GateKind::kConst0, {}, zero);
  const NetId floating = c.add_net("floating");  // undriven: constant Z
  const NetId y1 = c.add_net("y1"), y2 = c.add_net("y2");
  c.add_gate(GateKind::kNand, {floating, zero}, y1);
  c.add_gate(GateKind::kNand, {floating, a}, y2);
  auto eval = CompiledEval::compile(c, {a}, {y1, y2});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  // y1 folds to constant 1; y2 depends on `a` so it stays an instruction.
  EXPECT_EQ(eval->instruction_count(), 1u);

  std::vector<PackedBits> in(1), out(2);
  set_lane(in[0], 0, Logic::k0);
  set_lane(in[0], 1, Logic::k1);
  ASSERT_TRUE(eval->eval_packed(in, out, 2).ok());
  EXPECT_EQ(get_lane(out[0], 0), Logic::k1);  // NAND(Z, 0) = 1
  EXPECT_EQ(get_lane(out[0], 1), Logic::k1);
  EXPECT_EQ(get_lane(out[1], 0), Logic::k1);  // NAND(Z, 0) dominant
  EXPECT_EQ(get_lane(out[1], 1), Logic::kX);  // NAND(Z, 1) = X
}

// ---------- differential property test --------------------------------------

struct RandomCircuit {
  Circuit c;
  std::vector<NetId> ins;
  std::vector<NetId> outs;
};

/// Random ≤3-input netlist in the fabric's idiom: plain gates, constant
/// sources, a floating line, and 3-state buses whose enables are
/// compile-time constants (configured on, configured off, or floating).
RandomCircuit make_random_circuit(util::Rng& rng) {
  RandomCircuit rc;
  std::vector<NetId> pool;
  const int nin = 2 + static_cast<int>(rng.next_below(5));
  for (int i = 0; i < nin; ++i) {
    const NetId n = rc.c.add_net("in" + std::to_string(i));
    rc.c.mark_input(n);
    rc.ins.push_back(n);
    pool.push_back(n);
  }
  const NetId floating = rc.c.add_net("floating");
  pool.push_back(floating);
  const NetId c0 = rc.c.add_net("c0");
  rc.c.add_gate(GateKind::kConst0, {}, c0);
  pool.push_back(c0);
  const NetId c1 = rc.c.add_net("c1");
  rc.c.add_gate(GateKind::kConst1, {}, c1);
  pool.push_back(c1);

  auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  const int ngates = 5 + static_cast<int>(rng.next_below(30));
  for (int g = 0; g < ngates; ++g) {
    if (rng.next_bool(0.15)) {
      // A 3-state bus with 1..3 drivers; enables are constant nets only
      // (const-0, const-1, or the floating line), as a configured fabric's.
      const NetId bus = rc.c.add_net("bus" + std::to_string(g));
      const int nd = 1 + static_cast<int>(rng.next_below(3));
      for (int d = 0; d < nd; ++d) {
        const NetId enables[3] = {c0, c1, floating};
        const NetId en = enables[rng.next_below(3)];
        rc.c.add_gate(rng.next_bool() ? GateKind::kTriBuf : GateKind::kTriInv,
                      {pick(), en}, bus);
      }
      pool.push_back(bus);
      continue;
    }
    static constexpr GateKind kKinds[] = {
        GateKind::kNand, GateKind::kAnd,  GateKind::kOr,
        GateKind::kNor,  GateKind::kXor,  GateKind::kXnor,
        GateKind::kNot,  GateKind::kBuf,  GateKind::kDelay,
    };
    const GateKind kind = kKinds[rng.next_below(std::size(kKinds))];
    const bool unary = kind == GateKind::kNot || kind == GateKind::kBuf ||
                       kind == GateKind::kDelay;
    const int arity = unary ? 1 : 1 + static_cast<int>(rng.next_below(3));
    std::vector<NetId> inputs;
    for (int i = 0; i < arity; ++i) inputs.push_back(pick());
    const NetId out = rc.c.add_net("n" + std::to_string(g));
    rc.c.add_gate(kind, std::move(inputs), out);
    pool.push_back(out);
  }

  rc.outs.push_back(pool.back());
  for (int i = 0; i < 4; ++i) rc.outs.push_back(pick());
  return rc;
}

[[nodiscard]] Logic random_logic(util::Rng& rng) {
  const auto r = rng.next_below(8);
  if (r == 0) return Logic::kX;  // 1-in-8 unknown lanes
  return (r & 1) ? Logic::k1 : Logic::k0;
}

TEST(CompiledEval, DifferentialAgainstSettledEventSimulator) {
  util::Rng rng(20260728);
  int compiled_circuits = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomCircuit rc = make_random_circuit(rng);
    ASSERT_EQ(rc.c.validate(), "");

    // Random packed stimulus, X lanes included.
    std::vector<PackedBits> in(rc.ins.size());
    for (auto& p : in)
      for (int lane = 0; lane < Evaluator::kBatchLanes; ++lane)
        set_lane(p, lane, random_logic(rng));

    // Reference: the settled event-driven simulator, lane by lane.
    Simulator sim(rc.c);
    std::vector<PackedBits> expect(rc.outs.size());
    for (int lane = 0; lane < Evaluator::kBatchLanes; ++lane) {
      for (std::size_t j = 0; j < rc.ins.size(); ++j)
        sim.set_input(rc.ins[j], get_lane(in[j], lane));
      ASSERT_TRUE(sim.settle()) << "trial " << trial << " oscillated";
      for (std::size_t k = 0; k < rc.outs.size(); ++k)
        set_lane(expect[k], lane, sim.value(rc.outs[k]));
    }

    auto eval = CompiledEval::compile(rc.c, rc.ins, rc.outs);
    ASSERT_TRUE(eval.ok()) << "trial " << trial << ": "
                           << eval.status().to_string();
    ++compiled_circuits;
    std::vector<PackedBits> got(rc.outs.size());
    ASSERT_TRUE(eval->eval_packed(in, got).ok());
    for (std::size_t k = 0; k < rc.outs.size(); ++k) {
      EXPECT_EQ(got[k].value, expect[k].value)
          << "trial " << trial << " output " << k << " value plane";
      EXPECT_EQ(got[k].unknown, expect[k].unknown)
          << "trial " << trial << " output " << k << " unknown plane";
    }

    // The event engine behind the same interface must agree too.
    auto ev = EventEval::create(rc.c, rc.ins, rc.outs);
    ASSERT_TRUE(ev.ok()) << ev.status().to_string();
    std::vector<PackedBits> got_ev(rc.outs.size());
    ASSERT_TRUE(ev->eval_packed(in, got_ev).ok());
    for (std::size_t k = 0; k < rc.outs.size(); ++k)
      EXPECT_EQ(got_ev[k], expect[k]) << "trial " << trial << " output " << k;
  }
  EXPECT_EQ(compiled_circuits, 150);
}

TEST(CompiledEval, ReusesPrecomputedLevelization) {
  util::Rng rng(7);
  RandomCircuit rc = make_random_circuit(rng);
  auto lm = levelize(rc.c);
  ASSERT_TRUE(lm.ok());
  auto fresh = CompiledEval::compile(rc.c, rc.ins, rc.outs);
  auto reused = CompiledEval::compile(rc.c, rc.ins, rc.outs, &*lm);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(fresh->instruction_count(), reused->instruction_count());
  std::vector<PackedBits> in(rc.ins.size());
  for (auto& p : in)
    for (int lane = 0; lane < 64; ++lane) set_lane(p, lane, random_logic(rng));
  std::vector<PackedBits> a(rc.outs.size()), b(rc.outs.size());
  ASSERT_TRUE(fresh->eval_packed(in, a).ok());
  ASSERT_TRUE(reused->eval_packed(in, b).ok());
  EXPECT_EQ(a, b);

  // A stale map of the right size (here: reversed order, which violates
  // driver-before-reader) must not be trusted — compile falls back to a
  // fresh levelization and still produces correct results.
  LevelMap stale = *lm;
  std::reverse(stale.order.begin(), stale.order.end());
  auto guarded = CompiledEval::compile(rc.c, rc.ins, rc.outs, &stale);
  ASSERT_TRUE(guarded.ok()) << guarded.status().to_string();
  std::vector<PackedBits> g(rc.outs.size());
  ASSERT_TRUE(guarded->eval_packed(in, g).ok());
  EXPECT_EQ(a, g);
}

// ---------- wide SoA kernel -------------------------------------------------

/// 0/1/X/Z stimulus (1-in-8 X, 1-in-16 Z) for the wide differential runs.
[[nodiscard]] Logic random_logic4(util::Rng& rng) {
  const auto r = rng.next_below(16);
  if (r == 0 || r == 1) return Logic::kX;
  if (r == 2) return Logic::kZ;
  return (r & 1) ? Logic::k1 : Logic::k0;
}

TEST(CompiledEvalWide, DifferentialAcrossWidthsAndEngines) {
  util::Rng rng(515151);
  constexpr std::size_t kW = Evaluator::kBatchLanes;
  int compiled_circuits = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomCircuit rc = make_random_circuit(rng);
    ASSERT_EQ(rc.c.validate(), "");
    const std::size_t nin = rc.ins.size();
    const std::size_t nout = rc.outs.size();
    // 65..192 lanes: always multi-word, usually a partial final word.
    const std::size_t lanes = 65 + rng.next_below(128);
    const std::size_t words = (lanes + kW - 1) / kW;

    // Random SoA stimulus with X and Z lanes; Z collapses into the unknown
    // plane at the packing boundary.
    std::vector<Logic> stim(nin * lanes);
    std::vector<std::uint64_t> in_v(nin * words, 0), in_u(nin * words, 0);
    for (std::size_t i = 0; i < nin; ++i)
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const Logic v = random_logic4(rng);
        stim[i * lanes + lane] = v;
        const std::size_t word = lane / kW;
        const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
        if (v == Logic::k1) in_v[i * words + word] |= bit;
        else if (v != Logic::k0) in_u[i * words + word] |= bit;
      }
    // Garbage in the dead lanes of the final word must not leak through.
    if (lanes % kW != 0) {
      const std::uint64_t live = (std::uint64_t{1} << (lanes % kW)) - 1;
      for (std::size_t i = 0; i < nin; ++i) {
        in_v[i * words + words - 1] |= ~live;
        in_u[(i * words + words - 1)] |= (~live) & (rng.next_u64());
      }
    }

    // Ground truth: the settled event simulator, lane by lane.  Dead lanes
    // stay 0/0 in the expectation — the engines must zero them too.
    Simulator sim(rc.c);
    std::vector<std::uint64_t> exp_v(nout * words, 0), exp_u(nout * words, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t j = 0; j < nin; ++j)
        sim.set_input(rc.ins[j], stim[j * lanes + lane]);
      ASSERT_TRUE(sim.settle()) << "trial " << trial << " oscillated";
      for (std::size_t k = 0; k < nout; ++k) {
        const Logic v = sim.value(rc.outs[k]);
        const std::size_t word = lane / kW;
        const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
        if (v == Logic::k1) exp_v[k * words + word] |= bit;
        else if (v != Logic::k0) exp_u[k * words + word] |= bit;
      }
    }

    // The wide kernel at several widths (covering chunked passes, the
    // W == words case, and W > words) plus the PR 2-configuration scalar
    // baseline must all match the reference bit-for-bit.
    const CompiledEval::CompileOptions configs[] = {
        {.wide_words = 1, .two_valued = true, .optimize = true},
        {.wide_words = 2, .two_valued = true, .optimize = true},
        {.wide_words = 8, .two_valued = true, .optimize = true},
        {.wide_words = 1, .two_valued = false, .optimize = false},
    };
    for (const auto& cfg : configs) {
      auto eval =
          CompiledEval::compile(rc.c, rc.ins, rc.outs, nullptr, cfg);
      ASSERT_TRUE(eval.ok()) << "trial " << trial << ": "
                             << eval.status().to_string();
      std::vector<std::uint64_t> got_v(nout * words, ~std::uint64_t{0});
      std::vector<std::uint64_t> got_u(nout * words, ~std::uint64_t{0});
      ASSERT_TRUE(eval->eval_wide(in_v, in_u, got_v, got_u, lanes).ok());
      EXPECT_EQ(got_v, exp_v) << "trial " << trial << " W=" << cfg.wide_words
                              << " opt=" << cfg.optimize << " value plane";
      EXPECT_EQ(got_u, exp_u) << "trial " << trial << " W=" << cfg.wide_words
                              << " opt=" << cfg.optimize << " unknown plane";
    }
    ++compiled_circuits;

    // The event engine behind the base-class wide adapter agrees too
    // (sampled: it replays lane-at-a-time, so it is the slow reference).
    if (trial % 25 == 0) {
      auto ev = EventEval::create(rc.c, rc.ins, rc.outs);
      ASSERT_TRUE(ev.ok()) << ev.status().to_string();
      std::vector<std::uint64_t> got_v(nout * words, ~std::uint64_t{0});
      std::vector<std::uint64_t> got_u(nout * words, ~std::uint64_t{0});
      ASSERT_TRUE(ev->eval_wide(in_v, in_u, got_v, got_u, lanes).ok());
      EXPECT_EQ(got_v, exp_v) << "trial " << trial << " event value plane";
      EXPECT_EQ(got_u, exp_u) << "trial " << trial << " event unknown plane";
    }
  }
  EXPECT_EQ(compiled_circuits, 150);
}

TEST(CompiledEvalWide, FastPathTriggersAndAgreesWithSlowPath) {
  // Plain logic, no wired-resolution, no constant-unknown source: the
  // two-valued fast path is available and taken exactly when the batch
  // carries no unknown bits.
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  c.mark_input(a);
  c.mark_input(b);
  const NetId x = c.add_net("x"), y = c.add_net("y");
  c.add_gate(GateKind::kXor, {a, b}, x);
  c.add_gate(GateKind::kNand, {a, x}, y);
  auto fast = CompiledEval::compile(c, {a, b}, {y});
  auto slow = CompiledEval::compile(
      c, {a, b}, {y}, nullptr,
      {.wide_words = CompiledEval::kDefaultWideWords, .two_valued = false,
       .optimize = true});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(fast->fast_path_available());
  EXPECT_FALSE(slow->fast_path_available());

  std::vector<PackedBits> in(2), out_fast(1), out_slow(1);
  in[0].value = 0xDEADBEEFCAFEF00Dull;
  in[1].value = 0x0123456789ABCDEFull;
  ASSERT_TRUE(fast->eval_packed(in, out_fast).ok());
  ASSERT_TRUE(slow->eval_packed(in, out_slow).ok());
  EXPECT_EQ(out_fast[0], out_slow[0]);
  EXPECT_EQ(fast->kernel_stats().fast_passes, 1u);
  EXPECT_EQ(fast->kernel_stats().slow_passes, 0u);
  EXPECT_EQ(slow->kernel_stats().fast_passes, 0u);
  EXPECT_EQ(slow->kernel_stats().slow_passes, 1u);

  // One X lane forces the two-plane kernel — and both kernels still agree.
  // Lane 0 has a=1, so the X on b propagates: y = NAND(1, XOR(1, X)) = X.
  set_lane(in[1], 0, Logic::kX);
  ASSERT_TRUE(fast->eval_packed(in, out_fast).ok());
  ASSERT_TRUE(slow->eval_packed(in, out_slow).ok());
  EXPECT_EQ(out_fast[0], out_slow[0]);
  EXPECT_EQ(get_lane(out_fast[0], 0), Logic::kX);
  EXPECT_EQ(fast->kernel_stats().fast_passes, 1u);
  EXPECT_EQ(fast->kernel_stats().slow_passes, 1u);

  // Clones aggregate into the same (shared-program) counters.
  auto clone = fast->clone();
  set_lane(in[1], 0, Logic::k0);
  ASSERT_TRUE(clone->eval_packed(in, out_fast).ok());
  EXPECT_EQ(fast->kernel_stats().fast_passes, 2u);
}

TEST(CompiledEvalWide, ResolutionDisablesFastPath) {
  // Two always-on 3-state drivers share a net: kResolve survives folding
  // and can manufacture X from disagreeing binary drivers, so the
  // single-plane kernel is never eligible.
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  c.mark_input(a);
  c.mark_input(b);
  const NetId one = c.add_net("one");
  c.add_gate(GateKind::kConst1, {}, one);
  const NetId bus = c.add_net("bus");
  c.add_gate(GateKind::kTriBuf, {a, one}, bus);
  c.add_gate(GateKind::kTriBuf, {b, one}, bus);
  auto eval = CompiledEval::compile(c, {a, b}, {bus});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  EXPECT_FALSE(eval->fast_path_available());

  std::vector<PackedBits> in(2), out(1);
  in[0].value = 0b0011;  // agree on lanes 0 (both 1) and 3 (both 0)
  in[1].value = 0b0101;
  ASSERT_TRUE(eval->eval_packed(in, out, 4).ok());
  EXPECT_EQ(get_lane(out[0], 0), Logic::k1);
  EXPECT_EQ(get_lane(out[0], 1), Logic::kX);
  EXPECT_EQ(get_lane(out[0], 2), Logic::kX);
  EXPECT_EQ(get_lane(out[0], 3), Logic::k0);
  EXPECT_EQ(eval->kernel_stats().fast_passes, 0u);
  EXPECT_EQ(eval->kernel_stats().slow_passes, 1u);
}

TEST(CompiledEvalWide, ConstantUnknownSourceDisablesFastPath) {
  // A floating (undriven) net in the live cone folds to constant Z and
  // must keep the batch on the two-plane kernel even for known inputs.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId floating = c.add_net("floating");
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kAnd, {a, floating}, y);
  auto eval = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->fast_path_available());
  // ...but a cone that folds the floating net away is eligible again.
  Circuit c2;
  const NetId a2 = c2.add_net("a");
  c2.mark_input(a2);
  const NetId zero = c2.add_net("zero");
  c2.add_gate(GateKind::kConst0, {}, zero);
  const NetId f2 = c2.add_net("floating");
  const NetId dead = c2.add_net("dead"), y2 = c2.add_net("y");
  c2.add_gate(GateKind::kAnd, {f2, zero}, dead);  // folds to constant 0
  c2.add_gate(GateKind::kNot, {a2}, y2);
  auto eval2 = CompiledEval::compile(c2, {a2}, {y2});
  ASSERT_TRUE(eval2.ok());
  EXPECT_TRUE(eval2->fast_path_available());
}

TEST(CompiledEval, BufferChainCopyPropagation) {
  // NOT feeding a 4-buffer chain: copy-propagation renames the chain away,
  // leaving one instruction; the baseline keeps all five.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  NetId prev = c.add_net("n0");
  c.add_gate(GateKind::kNot, {a}, prev);
  for (int i = 1; i <= 4; ++i) {
    const NetId next = c.add_net("n" + std::to_string(i));
    c.add_gate(i % 2 ? GateKind::kBuf : GateKind::kDelay, {prev}, next);
    prev = next;
  }
  auto opt = CompiledEval::compile(c, {a}, {prev});
  auto raw = CompiledEval::compile(
      c, {a}, {prev}, nullptr,
      {.wide_words = 1, .two_valued = false, .optimize = false});
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(opt->instruction_count(), 1u);
  EXPECT_EQ(raw->instruction_count(), 5u);

  std::vector<PackedBits> in(1), a_out(1), b_out(1);
  set_lane(in[0], 0, Logic::k0);
  set_lane(in[0], 1, Logic::k1);
  set_lane(in[0], 2, Logic::kX);
  ASSERT_TRUE(opt->eval_packed(in, a_out, 3).ok());
  ASSERT_TRUE(raw->eval_packed(in, b_out, 3).ok());
  EXPECT_EQ(a_out[0], b_out[0]);
  EXPECT_EQ(get_lane(a_out[0], 0), Logic::k1);
  EXPECT_EQ(get_lane(a_out[0], 2), Logic::kX);
}

TEST(CompiledEval, PolarityFoldChainsResolveAndRegisterTaps) {
  // Inverter chains of both parities, a wired net with an inverted-alias
  // driver and a register D tap behind an odd chain (tests/fold_circuits.h).
  // The exact counts leave room for one kNot per inverted source slot, so
  // every later reader of that slot must share it; the optimize=false
  // program keeps every gate.  Both planes of every configuration equal
  // the event oracle, on X/Z stimulus and on all-known stimulus (the
  // two-valued fast path).
  util::Rng rng(20261019);
  for (const fold_test::FoldCase& f : fold_test::fold_cases()) {
    SCOPED_TRACE(f.name);
    ASSERT_EQ(f.c.validate(), "");
    const CompiledEval::CompileOptions configs[] = {
        {},
        {.wide_words = 1},
        {.wide_words = 1, .two_valued = false, .optimize = false},
    };
    std::vector<CompiledEval> engines;
    for (const auto& cfg : configs) {
      auto eval = fold_test::compile(f, cfg);
      ASSERT_TRUE(eval.ok()) << eval.status().to_string();
      EXPECT_EQ(eval->instruction_count(),
                cfg.optimize ? f.folded : f.unfolded);
      engines.push_back(std::move(*eval));
    }
    const std::size_t cycles = f.regs.empty() ? 1 : 6;
    for (const bool unknowns : {true, false}) {
      SCOPED_TRACE(unknowns ? "X/Z stimulus" : "known stimulus");
      // 150 lanes: three plane words, the last one partial.
      const auto s =
          fold_test::make_stimulus(f.ins.size(), cycles, 150, unknowns, rng);
      const fold_test::Planes want = fold_test::reference(f, s);
      for (CompiledEval& e : engines) EXPECT_EQ(fold_test::run(e, f, s), want);
      if (f.regs.empty()) {
        auto ev = EventEval::create(f.c, f.ins, f.outs);
        ASSERT_TRUE(ev.ok()) << ev.status().to_string();
        EXPECT_EQ(fold_test::run(*ev, f, s), want);
      }
    }
  }
}

TEST(CompiledEvalWide, StrideSwitchesPreserveConstantSlots) {
  // Alternating wide and one-word calls changes the scratch stride; the
  // constant slots (including the all-zero const-0 image) must survive
  // every switch.  OR(a, zero) and NAND(a, one) keep both constants live.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId zero = c.add_net("zero"), one = c.add_net("one");
  c.add_gate(GateKind::kConst0, {}, zero);
  c.add_gate(GateKind::kConst1, {}, one);
  const NetId y0 = c.add_net("y0"), y1 = c.add_net("y1");
  c.add_gate(GateKind::kOr, {a, zero}, y0);    // == a
  c.add_gate(GateKind::kNand, {a, one}, y1);   // == NOT a
  auto eval = CompiledEval::compile(c, {a}, {y0, y1});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();

  constexpr std::size_t kW = Evaluator::kBatchLanes;
  const std::size_t lanes = 150, words = (lanes + kW - 1) / kW;
  util::Rng rng(99);
  std::vector<std::uint64_t> in_v(words), in_u(words, 0);
  for (auto& w : in_v) w = rng.next_u64();
  std::vector<std::uint64_t> got_v(2 * words), got_u(2 * words);
  std::vector<PackedBits> pin(1), pout(2);
  pin[0].value = rng.next_u64();
  for (int round = 0; round < 3; ++round) {
    // Wide call (stride = words, then a partial tail pass)...
    ASSERT_TRUE(eval->eval_wide(in_v, in_u, got_v, got_u, lanes).ok());
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t m =
          w + 1 < words ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (lanes - w * kW)) - 1;
      EXPECT_EQ(got_v[w], in_v[w] & m) << "round " << round << " word " << w;
      EXPECT_EQ(got_v[words + w], ~in_v[w] & m);
      EXPECT_EQ(got_u[w], 0u);
      EXPECT_EQ(got_u[words + w], 0u);
    }
    // ...then a one-word call (stride 1) on the same engine.
    ASSERT_TRUE(eval->eval_packed(pin, pout).ok());
    EXPECT_EQ(pout[0].value, pin[0].value) << "round " << round;
    EXPECT_EQ(pout[1].value, ~pin[0].value);
  }
}

TEST(CompiledEvalWide, ShapeAndLaneValidation) {
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kNot, {a}, y);
  auto eval = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(eval.ok());
  std::vector<std::uint64_t> one(1), two(2);
  // 100 lanes span 2 words: 1-word spans must be rejected, 0 lanes too.
  EXPECT_EQ(eval->eval_wide(one, one, one, one, 100).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(eval->eval_wide(two, two, two, two, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(eval->eval_wide(two, two, two, two, 100).ok());
  // Rejected wide_words never compiles.
  EXPECT_EQ(CompiledEval::compile(c, {a}, {y}, nullptr, {.wide_words = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CompiledEval, PartialBatchZeroesUnusedLanes) {
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kNot, {a}, y);
  auto eval = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(eval.ok());
  std::vector<PackedBits> in(1), out(1);
  in[0].value = ~std::uint64_t{0};  // garbage beyond the valid lanes
  ASSERT_TRUE(eval->eval_packed(in, out, 3).ok());
  EXPECT_EQ(out[0].value & ~std::uint64_t{7}, 0u);
  EXPECT_EQ(out[0].unknown, 0u);
  EXPECT_EQ(get_lane(out[0], 0), Logic::k0);
}

TEST(CompiledEval, ClonesShareProgramButNotScratch) {
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  c.mark_input(a);
  c.mark_input(b);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kXor, {a, b}, y);
  auto eval = CompiledEval::compile(c, {a, b}, {y});
  ASSERT_TRUE(eval.ok());
  auto copy = eval->clone();
  std::vector<PackedBits> in1(2), in2(2), out1(1), out2(1);
  in1[0].value = 0xAAAA;  // a
  in1[1].value = 0x00FF;  // b
  in2[0].value = 0x5555;
  in2[1].value = 0x0F0F;
  ASSERT_TRUE(eval->eval_packed(in1, out1).ok());
  ASSERT_TRUE(copy->eval_packed(in2, out2).ok());
  EXPECT_EQ(out1[0].value, 0xAAAAull ^ 0x00FFull);
  EXPECT_EQ(out2[0].value, 0x5555ull ^ 0x0F0Full);
}

}  // namespace
}  // namespace pp::sim
