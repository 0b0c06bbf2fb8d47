// The sequential compiled engine: compile_sequential register slots, the
// multi-cycle run_cycles kernel, the levelize cycle diagnoses, and the
// differential property test pitting the compiled engine against the
// settled event simulator across random DFF/latch mixes — bit-for-bit,
// X-at-reset included.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "sim/logic.h"
#include "util/rng.h"

namespace pp::sim {
namespace {

constexpr std::size_t kW = Evaluator::kBatchLanes;

// ---------- helpers ---------------------------------------------------------

/// Lane accessors over the cycle-major SoA planes run_cycles speaks.
struct Planes {
  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> unknown;
  std::size_t signals, cycles, words;

  Planes(std::size_t signals, std::size_t cycles, std::size_t lanes,
         std::uint64_t fill = 0)
      : value(signals * cycles * ((lanes + kW - 1) / kW), fill),
        unknown(signals * cycles * ((lanes + kW - 1) / kW), fill),
        signals(signals),
        cycles(cycles),
        words((lanes + kW - 1) / kW) {}

  void set(std::size_t cycle, std::size_t sig, std::size_t lane, Logic v) {
    const std::size_t ofs = (cycle * signals + sig) * words + lane / kW;
    const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
    value[ofs] &= ~bit;
    unknown[ofs] &= ~bit;
    if (v == Logic::k1) value[ofs] |= bit;
    else if (v != Logic::k0) unknown[ofs] |= bit;
  }
  [[nodiscard]] Logic get(std::size_t cycle, std::size_t sig,
                          std::size_t lane) const {
    const std::size_t ofs = (cycle * signals + sig) * words + lane / kW;
    const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
    if (unknown[ofs] & bit) return Logic::kX;
    return (value[ofs] & bit) ? Logic::k1 : Logic::k0;
  }
};

/// 0/1/X/Z stimulus (1-in-8 X, 1-in-16 Z) matching the combinational
/// differential tests; Z collapses to X at the packing boundary.
[[nodiscard]] Logic random_logic4(util::Rng& rng) {
  const auto r = rng.next_below(16);
  if (r == 0 || r == 1) return Logic::kX;
  if (r == 2) return Logic::kZ;
  return (r & 1) ? Logic::k1 : Logic::k0;
}

// ---------- exact semantics: counter with async reset -----------------------

/// 2-bit synchronous counter with async-low reset plus one free-running DFF
/// that is never reset (its Q must stay X forever — NOT(X) == X).
struct CounterCircuit {
  Circuit c;
  NetId clk, rstn, q0, q1, qf;

  CounterCircuit() {
    clk = c.add_net("clk");
    c.mark_input(clk);
    rstn = c.add_net("rstn");
    c.mark_input(rstn);
    q0 = c.add_net("q0");
    q1 = c.add_net("q1");
    qf = c.add_net("qf");
    const NetId d0 = c.add_net("d0"), d1 = c.add_net("d1"),
                df = c.add_net("df");
    c.add_gate(GateKind::kNot, {q0}, d0);
    c.add_gate(GateKind::kXor, {q0, q1}, d1);
    c.add_gate(GateKind::kNot, {qf}, df);
    c.add_gate(GateKind::kDff, {d0, clk, rstn}, q0);
    c.add_gate(GateKind::kDff, {d1, clk, rstn}, q1);
    c.add_gate(GateKind::kDff, {df, clk}, qf);
  }
};

TEST(SeqEval, CounterExactSequenceAndXAtReset) {
  CounterCircuit cc;
  ASSERT_EQ(cc.c.validate(), "");
  const std::size_t cycles = 6, lanes = 2;

  // Lane 0 pulses reset low in cycle 0; lane 1 never resets, so its counter
  // bits stay X from the power-on state.
  Planes in(1, cycles, lanes);
  for (std::size_t cy = 0; cy < cycles; ++cy) {
    in.set(cy, 0, 0, cy == 0 ? Logic::k0 : Logic::k1);
    in.set(cy, 0, 1, Logic::k1);
  }

  auto eval = CompiledEval::compile_sequential(cc.c, {cc.rstn},
                                               {cc.q0, cc.q1, cc.qf});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  EXPECT_TRUE(eval->sequential());
  EXPECT_EQ(eval->register_count(), 3u);
  EXPECT_EQ(eval->input_count(), 1u);
  EXPECT_EQ(eval->output_count(), 3u);

  Planes got(3, cycles, lanes, ~std::uint64_t{0});
  ASSERT_TRUE(eval->run_cycles(in.value, in.unknown, got.value, got.unknown,
                               cycles, lanes)
                  .ok());

  // Outputs sample pre-edge: the async reset settles to 0 within cycle 0,
  // then the count runs 00, 00, 10, 01, 11, 00 (q0 is the low bit).
  const Logic exp_q0[] = {Logic::k0, Logic::k0, Logic::k1,
                          Logic::k0, Logic::k1, Logic::k0};
  const Logic exp_q1[] = {Logic::k0, Logic::k0, Logic::k0,
                          Logic::k1, Logic::k1, Logic::k0};
  for (std::size_t cy = 0; cy < cycles; ++cy) {
    EXPECT_EQ(got.get(cy, 0, 0), exp_q0[cy]) << "cycle " << cy;
    EXPECT_EQ(got.get(cy, 1, 0), exp_q1[cy]) << "cycle " << cy;
    EXPECT_EQ(got.get(cy, 2, 0), Logic::kX) << "cycle " << cy;  // never reset
    EXPECT_EQ(got.get(cy, 0, 1), Logic::kX) << "cycle " << cy;
    EXPECT_EQ(got.get(cy, 1, 1), Logic::kX) << "cycle " << cy;
    EXPECT_EQ(got.get(cy, 2, 1), Logic::kX) << "cycle " << cy;
  }

  // The fresh event simulator behind the same entry point agrees exactly.
  auto ev = EventEval::create(cc.c, {cc.rstn}, {cc.q0, cc.q1, cc.qf});
  ASSERT_TRUE(ev.ok()) << ev.status().to_string();
  Planes exp(3, cycles, lanes);
  ASSERT_TRUE(ev->run_cycles(in.value, in.unknown, exp.value, exp.unknown,
                             cycles, lanes)
                  .ok());
  EXPECT_EQ(got.value, exp.value);
  EXPECT_EQ(got.unknown, exp.unknown);
}

TEST(SeqEval, KernelCycleStatsAndFastCycles) {
  // Fully resettable pair (no free-running X register): once every lane has
  // reset, state and stimulus are all-known and cycles ride the fast path.
  Circuit c;
  const NetId clk = c.add_net("clk"), rstn = c.add_net("rstn");
  c.mark_input(clk);
  c.mark_input(rstn);
  const NetId q0 = c.add_net("q0"), q1 = c.add_net("q1");
  const NetId d0 = c.add_net("d0"), d1 = c.add_net("d1");
  c.add_gate(GateKind::kNot, {q0}, d0);
  c.add_gate(GateKind::kXor, {q0, q1}, d1);
  c.add_gate(GateKind::kDff, {d0, clk, rstn}, q0);
  c.add_gate(GateKind::kDff, {d1, clk, rstn}, q1);

  auto eval = CompiledEval::compile_sequential(c, {rstn}, {q0, q1});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  const std::size_t cycles = 6, lanes = 5;
  Planes in(1, cycles, lanes);
  for (std::size_t cy = 0; cy < cycles; ++cy)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      in.set(cy, 0, lane, cy == 0 ? Logic::k0 : Logic::k1);
  Planes got(2, cycles, lanes);
  ASSERT_TRUE(eval->run_cycles(in.value, in.unknown, got.value, got.unknown,
                               cycles, lanes)
                  .ok());
  const KernelStats st = eval->kernel_stats();
  EXPECT_EQ(st.cycles_run, 6u);
  EXPECT_EQ(st.state_commits, 12u);  // 2 edge registers x 6 cycles
  // Cycle 0 starts from X state (two-plane); cycles 1..5 are all-known.
  EXPECT_EQ(st.fast_cycle_passes, 5u);

  // Clones share the same counters.
  auto clone = eval->clone();
  ASSERT_TRUE(clone->run_cycles(in.value, in.unknown, got.value, got.unknown,
                                cycles, lanes)
                  .ok());
  EXPECT_EQ(eval->kernel_stats().cycles_run, 12u);
}

TEST(SeqEval, CarriedStateAcrossCalls) {
  CounterCircuit cc;
  auto eval = CompiledEval::compile_sequential(cc.c, {cc.rstn},
                                               {cc.q0, cc.q1, cc.qf});
  ASSERT_TRUE(eval.ok()) << eval.status().to_string();
  const std::size_t lanes = 3;

  // One 6-cycle run versus a 4-cycle run continued by a 2-cycle
  // reset=false run: identical outputs, cycle for cycle.
  Planes in6(1, 6, lanes);
  for (std::size_t cy = 0; cy < 6; ++cy)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      in6.set(cy, 0, lane, cy == 0 ? Logic::k0 : Logic::k1);
  Planes ref(3, 6, lanes);
  ASSERT_TRUE(eval->run_cycles(in6.value, in6.unknown, ref.value, ref.unknown,
                               6, lanes)
                  .ok());

  Planes in4(1, 4, lanes), in2(1, 2, lanes);
  for (std::size_t cy = 0; cy < 4; ++cy)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      in4.set(cy, 0, lane, cy == 0 ? Logic::k0 : Logic::k1);
  for (std::size_t cy = 0; cy < 2; ++cy)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      in2.set(cy, 0, lane, Logic::k1);
  Planes head(3, 4, lanes), tail(3, 2, lanes);
  ASSERT_TRUE(eval->run_cycles(in4.value, in4.unknown, head.value,
                               head.unknown, 4, lanes)
                  .ok());
  ASSERT_TRUE(eval->run_cycles(in2.value, in2.unknown, tail.value,
                               tail.unknown, 2, lanes, /*reset=*/false)
                  .ok());
  for (std::size_t cy = 0; cy < 6; ++cy)
    for (std::size_t k = 0; k < 3; ++k)
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const Logic want = ref.get(cy, k, lane);
        const Logic have = cy < 4 ? head.get(cy, k, lane)
                                  : tail.get(cy - 4, k, lane);
        EXPECT_EQ(have, want) << "cycle " << cy << " out " << k;
      }

  // Carried state lives at the previous call's lane width.
  Planes wide(1, 1, 100);
  Planes wout(3, 1, 100);
  EXPECT_EQ(eval->run_cycles(wide.value, wide.unknown, wout.value,
                             wout.unknown, 1, 100, /*reset=*/false)
                .code(),
            StatusCode::kFailedPrecondition);
  // The event engine rebuilds lanes per call: reset=false is unsupported.
  auto ev = EventEval::create(cc.c, {cc.rstn}, {cc.q0});
  ASSERT_TRUE(ev.ok());
  Planes ein(1, 1, 2), eout(1, 1, 2);
  EXPECT_EQ(ev->run_cycles(ein.value, ein.unknown, eout.value, eout.unknown,
                           1, 2, /*reset=*/false)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(SeqEval, CombinationalProgramRunsCyclesToo) {
  // A purely combinational program through run_cycles: per-cycle evaluation
  // with nothing to commit.
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kNot, {a}, y);
  auto eval = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(eval.ok());
  EXPECT_FALSE(eval->sequential());
  EXPECT_EQ(eval->register_count(), 0u);
  const std::size_t cycles = 3, lanes = 2;
  Planes in(1, cycles, lanes), got(1, cycles, lanes);
  in.set(0, 0, 0, Logic::k0);
  in.set(1, 0, 0, Logic::k1);
  in.set(2, 0, 0, Logic::kX);
  Planes out(1, cycles, lanes);
  ASSERT_TRUE(eval->run_cycles(in.value, in.unknown, out.value, out.unknown,
                               cycles, lanes)
                  .ok());
  EXPECT_EQ(out.get(0, 0, 0), Logic::k1);
  EXPECT_EQ(out.get(1, 0, 0), Logic::k0);
  EXPECT_EQ(out.get(2, 0, 0), Logic::kX);
}

TEST(SeqEval, EvalWideRejectsSequentialProgram) {
  CounterCircuit cc;
  auto eval = CompiledEval::compile_sequential(cc.c, {cc.rstn}, {cc.q0});
  ASSERT_TRUE(eval.ok());
  std::vector<std::uint64_t> one(1);
  EXPECT_EQ(eval->eval_wide(one, one, one, one, 4).code(),
            StatusCode::kFailedPrecondition);
  std::vector<PackedBits> pin(1), pout(1);
  EXPECT_EQ(eval->eval_packed(pin, pout).code(),
            StatusCode::kFailedPrecondition);
}

// ---------- levelize diagnoses ----------------------------------------------

TEST(Levelize, DistinguishesRegisterLoopFromTrueCycle) {
  {
    // Feedback closed only through a DFF: a clocked design, not a cycle.
    Circuit c;
    const NetId clk = c.add_net("clk");
    c.mark_input(clk);
    const NetId q = c.add_net("q"), d = c.add_net("d");
    c.add_gate(GateKind::kNot, {q}, d);
    c.add_gate(GateKind::kDff, {d, clk}, q);
    auto lm = levelize(c);
    ASSERT_EQ(lm.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(lm.status().to_string().find("sequential feedback loop"),
              std::string::npos)
        << lm.status().to_string();
  }
  {
    // Cross-coupled NANDs: no register breaks the loop.
    Circuit c;
    const NetId s = c.add_net("s"), r = c.add_net("r");
    c.mark_input(s);
    c.mark_input(r);
    const NetId q = c.add_net("q"), nq = c.add_net("nq");
    c.add_gate(GateKind::kNand, {s, nq}, q);
    c.add_gate(GateKind::kNand, {r, q}, nq);
    auto lm = levelize(c);
    ASSERT_EQ(lm.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(lm.status().to_string().find("true combinational cycle"),
              std::string::npos)
        << lm.status().to_string();
  }
}

// ---------- sequential compile rejections -----------------------------------

TEST(SeqEval, SequentialCompileRejections) {
  {
    // Dynamic tri-state enable feeding state: still out of reach.
    Circuit c;
    const NetId clk = c.add_net("clk"), d = c.add_net("d"),
                en = c.add_net("en");
    c.mark_input(clk);
    c.mark_input(d);
    c.mark_input(en);
    const NetId bus = c.add_net("bus"), q = c.add_net("q");
    c.add_gate(GateKind::kTriBuf, {d, en}, bus);
    c.add_gate(GateKind::kDff, {bus, clk}, q);
    EXPECT_EQ(
        CompiledEval::compile_sequential(c, {d, en}, {q}).status().code(),
        StatusCode::kFailedPrecondition);
  }
  {
    // C-element: state with no clock discipline.
    Circuit c;
    const NetId a = c.add_net("a"), b = c.add_net("b");
    c.mark_input(a);
    c.mark_input(b);
    const NetId y = c.add_net("y");
    c.add_gate(GateKind::kCElement, {a, b}, y);
    EXPECT_EQ(CompiledEval::compile_sequential(c, {a, b}, {y}).status().code(),
              StatusCode::kFailedPrecondition);
  }
  {
    // Derived (gate-driven) clock.
    Circuit c;
    const NetId clk = c.add_net("clk"), en = c.add_net("en"),
                d = c.add_net("d");
    c.mark_input(clk);
    c.mark_input(en);
    c.mark_input(d);
    const NetId gclk = c.add_net("gclk"), q = c.add_net("q");
    c.add_gate(GateKind::kAnd, {clk, en}, gclk);
    c.add_gate(GateKind::kDff, {d, gclk}, q);
    EXPECT_EQ(
        CompiledEval::compile_sequential(c, {en, d}, {q}).status().code(),
        StatusCode::kFailedPrecondition);
  }
  {
    // Clock observed as data (a DFF D pin), and clock bound as an input.
    Circuit c;
    const NetId clk = c.add_net("clk"), d = c.add_net("d");
    c.mark_input(clk);
    c.mark_input(d);
    const NetId q = c.add_net("q"), q2 = c.add_net("q2");
    c.add_gate(GateKind::kDff, {d, clk}, q);
    c.add_gate(GateKind::kDff, {clk, clk}, q2);
    EXPECT_EQ(CompiledEval::compile_sequential(c, {d}, {q}).status().code(),
              StatusCode::kFailedPrecondition);
    Circuit c2;
    const NetId clk2 = c2.add_net("clk"), d2 = c2.add_net("d");
    c2.mark_input(clk2);
    c2.mark_input(d2);
    const NetId qq = c2.add_net("q");
    c2.add_gate(GateKind::kDff, {d2, clk2}, qq);
    EXPECT_EQ(
        CompiledEval::compile_sequential(c2, {d2, clk2}, {qq}).status().code(),
        StatusCode::kFailedPrecondition);
  }
  {
    // External register pads must be primary inputs, declared once, and
    // not double as public inputs.
    Circuit c;
    const NetId a = c.add_net("a");
    c.mark_input(a);
    const NetId y = c.add_net("y");
    c.add_gate(GateKind::kNot, {a}, y);
    EXPECT_EQ(CompiledEval::compile_sequential(c, {a}, {y}, {{y, a}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(CompiledEval::compile_sequential(c, {a}, {y},
                                               {{a, y}, {a, y}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(CompiledEval::compile_sequential(c, {a}, {y}, {{a, y}})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  {
    // True combinational cycle fails even under the sequential compiler.
    Circuit c;
    const NetId s = c.add_net("s"), r = c.add_net("r");
    c.mark_input(s);
    c.mark_input(r);
    const NetId q = c.add_net("q"), nq = c.add_net("nq");
    c.add_gate(GateKind::kNand, {s, nq}, q);
    c.add_gate(GateKind::kNand, {r, q}, nq);
    EXPECT_EQ(
        CompiledEval::compile_sequential(c, {s, r}, {q}).status().code(),
        StatusCode::kFailedPrecondition);
  }
}

// ---------- differential property test --------------------------------------

struct RandomSeqCircuit {
  Circuit c;
  std::vector<NetId> ins;   ///< public data inputs (enables/resets included)
  std::vector<NetId> outs;
  std::vector<ExternalReg> regs;
};

/// Random clocked netlist: 1..3 DFFs (some with async reset), 0..2
/// transparent latches, optional external register loops, and a random
/// combinational fabric over inputs, state outputs, constants, and a
/// floating net.  Feedback closes only through registers (gates read only
/// already-created nets), so the combinational graph is a DAG.  Latch
/// enables and DFF resets are wired directly from dedicated inputs — the
/// settled-cycle semantics are not glitch-accurate for control cones — and
/// latch D cones avoid latch outputs entirely, so transparent feedback
/// cannot oscillate.
RandomSeqCircuit make_random_seq_circuit(util::Rng& rng) {
  RandomSeqCircuit rc;
  Circuit& c = rc.c;
  std::vector<NetId> pool;  ///< every pickable data net
  std::vector<char> latch_free_flag;
  auto mark_clean = [&](NetId n) {
    if (latch_free_flag.size() <= n) latch_free_flag.resize(n + 1, 0);
    latch_free_flag[n] = 1;
  };
  auto is_clean = [&](NetId n) {
    return n < latch_free_flag.size() && latch_free_flag[n];
  };

  const NetId clk = c.add_net("clk");
  c.mark_input(clk);

  const int nin = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < nin; ++i) {
    const NetId n = c.add_net("in" + std::to_string(i));
    c.mark_input(n);
    rc.ins.push_back(n);
    pool.push_back(n);
    mark_clean(n);
  }
  const NetId floating = c.add_net("floating");
  pool.push_back(floating);
  mark_clean(floating);
  const NetId c0 = c.add_net("c0");
  c.add_gate(GateKind::kConst0, {}, c0);
  const NetId c1 = c.add_net("c1");
  c.add_gate(GateKind::kConst1, {}, c1);
  pool.push_back(c0);
  pool.push_back(c1);
  mark_clean(c0);
  mark_clean(c1);

  // Pre-created register outputs: usable as gate inputs before the register
  // gates exist, so feedback loops close only through state.
  std::vector<NetId> dff_q, dff_rstn;  // rstn entry == clk means "none"
  const int ndff = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < ndff; ++i) {
    dff_q.push_back(c.add_net("dffq" + std::to_string(i)));
    if (rng.next_bool(0.5)) {
      const NetId rstn = c.add_net("rstn" + std::to_string(i));
      c.mark_input(rstn);
      rc.ins.push_back(rstn);
      dff_rstn.push_back(rstn);
    } else {
      dff_rstn.push_back(clk);
    }
    pool.push_back(dff_q.back());
    mark_clean(dff_q.back());  // opaque until the edge: no transparency
  }
  std::vector<NetId> latch_q, latch_en;
  const int nlatch = static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nlatch; ++i) {
    latch_q.push_back(c.add_net("latq" + std::to_string(i)));
    const NetId en = c.add_net("en" + std::to_string(i));
    c.mark_input(en);
    rc.ins.push_back(en);
    latch_en.push_back(en);
    pool.push_back(latch_q.back());  // transparent: not latch-free
  }
  const int nxreg =
      rng.next_bool(0.5) ? 1 + static_cast<int>(rng.next_below(2)) : 0;
  for (int i = 0; i < nxreg; ++i) {
    const NetId q = c.add_net("xq" + std::to_string(i));
    c.mark_input(q);
    rc.regs.push_back(
        {q, q, rng.next_bool() ? Logic::k1 : Logic::k0});  // d patched below
    pool.push_back(q);
    mark_clean(q);
  }

  auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  auto pick_clean = [&] {
    for (;;) {
      const NetId n = pick();
      if (is_clean(n)) return n;
    }
  };

  static constexpr GateKind kKinds[] = {
      GateKind::kNand, GateKind::kAnd, GateKind::kOr,
      GateKind::kNor,  GateKind::kXor, GateKind::kXnor,
      GateKind::kNot,  GateKind::kBuf, GateKind::kDelay,
  };
  const int ngates = 4 + static_cast<int>(rng.next_below(18));
  for (int g = 0; g < ngates; ++g) {
    const GateKind kind = kKinds[rng.next_below(std::size(kKinds))];
    const bool unary = kind == GateKind::kNot || kind == GateKind::kBuf ||
                       kind == GateKind::kDelay;
    const int arity = unary ? 1 : 1 + static_cast<int>(rng.next_below(3));
    std::vector<NetId> inputs;
    bool out_clean = true;
    for (int i = 0; i < arity; ++i) {
      inputs.push_back(pick());
      out_clean = out_clean && is_clean(inputs.back());
    }
    const NetId out = c.add_net("n" + std::to_string(g));
    c.add_gate(kind, std::move(inputs), out);
    pool.push_back(out);
    if (out_clean) mark_clean(out);
  }

  for (int i = 0; i < ndff; ++i) {
    const NetId d = pick();
    if (dff_rstn[i] != clk)
      c.add_gate(GateKind::kDff, {d, clk, dff_rstn[i]}, dff_q[i]);
    else
      c.add_gate(GateKind::kDff, {d, clk}, dff_q[i]);
  }
  for (int i = 0; i < nlatch; ++i)
    c.add_gate(GateKind::kLatch, {pick_clean(), latch_en[i]}, latch_q[i]);
  for (ExternalReg& r : rc.regs) r.d = pick();

  rc.outs.push_back(dff_q[0]);
  if (nlatch > 0) rc.outs.push_back(latch_q[0]);
  while (rc.outs.size() < 4) rc.outs.push_back(pick());
  return rc;
}

TEST(SeqEval, DifferentialAgainstSettledEventSimulator) {
  util::Rng rng(20260807);
  int compiled_circuits = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomSeqCircuit rc = make_random_seq_circuit(rng);
    ASSERT_EQ(rc.c.validate(), "");
    const std::size_t nin = rc.ins.size();
    const std::size_t nout = rc.outs.size();
    // 65..192 lanes (always multi-word, usually a partial final word),
    // 1..32 cycles.
    const std::size_t lanes = 65 + rng.next_below(128);
    const std::size_t cycles = 1 + rng.next_below(32);
    const std::size_t words = (lanes + kW - 1) / kW;

    Planes in(nin, cycles, lanes);
    for (std::size_t cy = 0; cy < cycles; ++cy)
      for (std::size_t i = 0; i < nin; ++i)
        for (std::size_t lane = 0; lane < lanes; ++lane)
          in.set(cy, i, lane, random_logic4(rng));
    // Garbage in the dead lanes of the final word must not leak through.
    if (lanes % kW != 0) {
      const std::uint64_t live = (std::uint64_t{1} << (lanes % kW)) - 1;
      for (std::size_t s = 0; s < nin * cycles; ++s) {
        in.value[s * words + words - 1] |= ~live;
        in.unknown[s * words + words - 1] |= (~live) & rng.next_u64();
      }
    }

    // Reference: the settled event simulator, lane by lane, cycle by cycle
    // (behavioural state X at power-on, external pads at declared resets).
    auto ev = EventEval::create(rc.c, rc.ins, rc.outs, 2'000'000, rc.regs);
    ASSERT_TRUE(ev.ok()) << "trial " << trial << ": "
                         << ev.status().to_string();
    Planes expect(nout, cycles, lanes);
    ASSERT_TRUE(ev->run_cycles(in.value, in.unknown, expect.value,
                               expect.unknown, cycles, lanes)
                    .ok())
        << "trial " << trial;

    // The compiled kernel at several widths: the default, chunked pass
    // groups (W < words), and the unoptimized two-plane baseline.
    const CompiledEval::CompileOptions configs[] = {
        {},
        {.wide_words = 1, .two_valued = true, .optimize = true},
        {.wide_words = 2, .two_valued = false, .optimize = false},
    };
    for (const auto& cfg : configs) {
      auto eval = CompiledEval::compile_sequential(rc.c, rc.ins, rc.outs,
                                                   rc.regs, nullptr, cfg);
      ASSERT_TRUE(eval.ok()) << "trial " << trial << ": "
                             << eval.status().to_string();
      Planes got(nout, cycles, lanes, ~std::uint64_t{0});
      ASSERT_TRUE(eval->run_cycles(in.value, in.unknown, got.value,
                                   got.unknown, cycles, lanes)
                      .ok())
          << "trial " << trial;
      EXPECT_EQ(got.value, expect.value)
          << "trial " << trial << " W=" << cfg.wide_words << " value plane";
      EXPECT_EQ(got.unknown, expect.unknown)
          << "trial " << trial << " W=" << cfg.wide_words << " unknown plane";
    }
    ++compiled_circuits;
  }
  EXPECT_EQ(compiled_circuits, 150);
}

}  // namespace
}  // namespace pp::sim
