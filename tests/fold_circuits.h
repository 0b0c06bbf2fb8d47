// Hand-built circuits for CompiledEval's polarity-aware copy-propagation,
// shared by the interpreter tests (compiled_eval_test) and the JIT
// differential (jit_eval_test).  Each circuit mixes inverting one-input
// gates (NOT, one-pin NAND/NOR/XNOR, an always-on 3-state inverter) with
// pass-through ones (BUF, kDelay, one-pin AND/OR/XOR), reads its chains at
// both polarities, and records the exact instruction count the fold must
// reach: the chains cost nothing, and each inverted source slot that is
// read costs one shared kNot.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "sim/logic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace pp::sim::fold_test {

struct FoldCase {
  std::string name;
  Circuit c;
  std::vector<NetId> ins, outs;
  std::vector<ExternalReg> regs;  ///< non-empty: a compile_sequential case
  std::size_t folded = 0;         ///< instructions with optimize on
  std::size_t unfolded = 0;       ///< instructions with optimize off
};

/// Adds `kind(ins)` driving a fresh net named `name`; returns the net.
inline NetId add(Circuit& c, GateKind kind, std::vector<NetId> ins,
                 const std::string& name) {
  const NetId out = c.add_net(name);
  c.add_gate(kind, std::move(ins), out);
  return out;
}

inline NetId add_input(Circuit& c, const std::string& name) {
  const NetId n = c.add_net(name);
  c.mark_input(n);
  return n;
}

/// Two chains, one of each parity, fanned out at several depths into
/// two-input gates and bound as outputs at both polarities.
inline FoldCase chains_case() {
  FoldCase f;
  f.name = "chains";
  Circuit& c = f.c;
  const NetId a = add_input(c, "a"), b = add_input(c, "b");
  using K = GateKind;
  // Odd chain on a (10 gates, 5 inversions); the comment is each net's
  // polarity relative to a.
  const NetId n1 = add(c, K::kNot, {a}, "n1");     // ~a
  const NetId n2 = add(c, K::kBuf, {n1}, "n2");    // ~a
  const NetId n3 = add(c, K::kNand, {n2}, "n3");   //  a
  const NetId n4 = add(c, K::kDelay, {n3}, "n4");  //  a
  const NetId n5 = add(c, K::kNor, {n4}, "n5");    // ~a
  const NetId n6 = add(c, K::kAnd, {n5}, "n6");    // ~a
  const NetId n7 = add(c, K::kXnor, {n6}, "n7");   //  a
  const NetId n8 = add(c, K::kOr, {n7}, "n8");     //  a
  const NetId n9 = add(c, K::kXor, {n8}, "n9");    //  a
  const NetId n10 = add(c, K::kNot, {n9}, "n10");  // ~a
  // Even chain on b, inverting gates only.
  const NetId m1 = add(c, K::kNot, {b}, "m1");     // ~b
  const NetId m2 = add(c, K::kNand, {m1}, "m2");   //  b
  const NetId m3 = add(c, K::kNor, {m2}, "m3");    // ~b
  const NetId m4 = add(c, K::kXnor, {m3}, "m4");   //  b
  // Fan-out at depths 5, 4+3, 1+1 and 9+4.
  const NetId g1 = add(c, K::kNand, {n5, b}, "g1");
  const NetId g2 = add(c, K::kXor, {n4, m3}, "g2");
  const NetId g3 = add(c, K::kAnd, {n1, m1}, "g3");
  const NetId g4 = add(c, K::kOr, {n9, m4}, "g4");
  f.ins = {a, b};
  f.outs = {n10, n8, m4, m1, g1, g2, g3, g4, n2};
  f.folded = 6;     // NOT a, NOT b, and the four two-input gates
  f.unfolded = 18;  // every gate
  return f;
}

/// A wired net whose three always-on drivers read an inverted alias
/// (a NOT materializes), the complement of an inverted alias (free) and a
/// plain one (free).
inline FoldCase resolve_case() {
  FoldCase f;
  f.name = "resolve";
  Circuit& c = f.c;
  const NetId a = add_input(c, "a"), b = add_input(c, "b"),
              d = add_input(c, "d");
  using K = GateKind;
  const NetId one = add(c, K::kConst1, {}, "one");
  const NetId na = add(c, K::kNot, {a}, "na");  // ~a
  const NetId nb = add(c, K::kNor, {b}, "nb");  // ~b
  const NetId bd = add(c, K::kBuf, {d}, "bd");  //  d
  const NetId bus = c.add_net("bus");
  c.add_gate(K::kTriBuf, {na, one}, bus);  // reads NOT a
  c.add_gate(K::kTriInv, {nb, one}, bus);  // reads b itself
  c.add_gate(K::kTriBuf, {bd, one}, bus);  // reads d itself
  const NetId y = add(c, K::kAnd, {bus, nb}, "y");
  f.ins = {a, b, d};
  f.outs = {bus, na, y};
  f.folded = 4;    // NOT a, resolve, NOT b, AND
  f.unfolded = 8;  // three one-input gates, three drivers, resolve, AND
  return f;
}

/// Two external registers: q0 toggles through an odd chain (its D tap is an
/// inverted alias of its own Q), q1 captures in XOR q0 through an even one.
inline FoldCase register_case() {
  FoldCase f;
  f.name = "register";
  Circuit& c = f.c;
  const NetId in = add_input(c, "in");
  const NetId q0 = add_input(c, "q0"), q1 = add_input(c, "q1");
  using K = GateKind;
  const NetId t1 = add(c, K::kNot, {q0}, "t1");    // ~q0
  const NetId t2 = add(c, K::kBuf, {t1}, "t2");    // ~q0
  const NetId t3 = add(c, K::kNand, {t2}, "t3");   //  q0
  const NetId t4 = add(c, K::kNor, {t3}, "t4");    // ~q0: D of q0
  const NetId e1 = add(c, K::kDelay, {q0}, "e1");  //  q0
  const NetId e2 = add(c, K::kAnd, {e1}, "e2");    //  q0
  const NetId d1 = add(c, K::kXor, {e2, in}, "d1");
  const NetId y1 = add(c, K::kXnor, {q1}, "y1");   // ~q1
  f.ins = {in};
  f.outs = {e2, y1, t2};
  f.regs = {{q0, t4, Logic::k0}, {q1, d1, Logic::k1}};
  f.folded = 3;    // XOR, NOT q1, NOT q0 (shared by t2 and the D tap)
  f.unfolded = 8;  // every gate
  return f;
}

inline std::vector<FoldCase> fold_cases() {
  std::vector<FoldCase> cases;
  cases.push_back(chains_case());
  cases.push_back(resolve_case());
  cases.push_back(register_case());
  return cases;
}

/// Per-lane stimulus over `cycles` cycles (1 for combinational cases) and
/// its packed form in the cycle-major SoA layout eval_wide / run_cycles
/// speak.  With `unknowns`, 1 lane in 8 is X and 1 in 16 is Z (Z packs
/// as unknown).
struct Stimulus {
  std::size_t nin, cycles, lanes, words;
  std::vector<Logic> logic;  ///< [(cycle * nin + input) * lanes + lane]
  std::vector<std::uint64_t> value, unknown;
};

inline Stimulus make_stimulus(std::size_t nin, std::size_t cycles,
                              std::size_t lanes, bool unknowns,
                              util::Rng& rng) {
  constexpr std::size_t kW = Evaluator::kBatchLanes;
  Stimulus s{nin, cycles, lanes, (lanes + kW - 1) / kW, {}, {}, {}};
  s.logic.resize(cycles * nin * lanes);
  s.value.assign(cycles * nin * s.words, 0);
  s.unknown.assign(s.value.size(), 0);
  for (std::size_t k = 0; k < cycles * nin; ++k)
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const auto r = rng.next_below(16);
      const Logic v = unknowns && r < 2   ? Logic::kX
                      : unknowns && r == 2 ? Logic::kZ
                      : (r & 1)            ? Logic::k1
                                           : Logic::k0;
      s.logic[k * lanes + lane] = v;
      const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
      if (v == Logic::k1) s.value[k * s.words + lane / kW] |= bit;
      else if (v != Logic::k0) s.unknown[k * s.words + lane / kW] |= bit;
    }
  return s;
}

struct Planes {
  std::vector<std::uint64_t> value, unknown;
  bool operator==(const Planes&) const = default;
};

/// One engine over the stimulus: eval_wide for a combinational case,
/// run_cycles from reset for a sequential one.  Fails the test on error.
inline Planes run(Evaluator& engine, const FoldCase& f, const Stimulus& s) {
  const std::size_t n = f.outs.size() * s.cycles * s.words;
  Planes p{std::vector<std::uint64_t>(n, ~std::uint64_t{0}),
           std::vector<std::uint64_t>(n, ~std::uint64_t{0})};
  const Status st =
      f.regs.empty()
          ? engine.eval_wide(s.value, s.unknown, p.value, p.unknown, s.lanes)
          : engine.run_cycles(s.value, s.unknown, p.value, p.unknown,
                              s.cycles, s.lanes);
  EXPECT_TRUE(st.ok()) << f.name << ": " << st.to_string();
  return p;
}

/// Ground truth.  Combinational: the settled event simulator lane by lane,
/// driven with the logic values themselves (Z included).  Sequential:
/// EventEval's per-lane cycle protocol.
inline Planes reference(const FoldCase& f, const Stimulus& s) {
  if (!f.regs.empty()) {
    auto ev = EventEval::create(f.c, f.ins, f.outs, 2'000'000, f.regs);
    EXPECT_TRUE(ev.ok()) << ev.status().to_string();
    return ev.ok() ? run(*ev, f, s) : Planes{};
  }
  constexpr std::size_t kW = Evaluator::kBatchLanes;
  const std::size_t n = f.outs.size() * s.words;
  Planes p{std::vector<std::uint64_t>(n, 0), std::vector<std::uint64_t>(n, 0)};
  Simulator sim(f.c);
  for (std::size_t lane = 0; lane < s.lanes; ++lane) {
    for (std::size_t i = 0; i < f.ins.size(); ++i)
      sim.set_input(f.ins[i], s.logic[i * s.lanes + lane]);
    EXPECT_TRUE(sim.settle()) << f.name << " oscillated";
    for (std::size_t k = 0; k < f.outs.size(); ++k) {
      const Logic v = sim.value(f.outs[k]);
      const std::uint64_t bit = std::uint64_t{1} << (lane % kW);
      if (v == Logic::k1) p.value[k * s.words + lane / kW] |= bit;
      else if (v != Logic::k0) p.unknown[k * s.words + lane / kW] |= bit;
    }
  }
  return p;
}

/// CompiledEval over the case: compile or compile_sequential.
inline Result<CompiledEval> compile(const FoldCase& f,
                                    const CompiledEval::CompileOptions& o) {
  return f.regs.empty()
             ? CompiledEval::compile(f.c, f.ins, f.outs, nullptr, o)
             : CompiledEval::compile_sequential(f.c, f.ins, f.outs, f.regs,
                                                nullptr, o);
}

}  // namespace pp::sim::fold_test
