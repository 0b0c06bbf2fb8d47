// sim::JitEval — the generated-code backend — differentially gated against
// the interpreter it was emitted from: 150 random combinational circuits
// (X/Z stimulus, partial-tail lanes, both planes bit-for-bit), the settled
// event-simulator oracle on the packed path, sequential run_cycles parity
// (exact counter sequence plus random clocked fabrics, carried state
// included), modal eval_modes parity, the hand-built polarity-fold
// circuits against the event oracle, the no-compiler degradation path,
// a compiler spawn that leaves the host's pending stdout alone, and the
// BatchExecutor hot-swap with its stats threading.
//
// Every test that invokes the host C compiler is guarded: when the
// container has no working `cc` the suite skips instead of failing — the
// production code path under test *is* the graceful degradation.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fold_circuits.h"
#include "platform/executor.h"
#include "sim/circuit.h"
#include "sim/evaluator.h"
#include "sim/jit.h"
#include "sim/logic.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace pp::sim {
namespace {

constexpr std::size_t kW = Evaluator::kBatchLanes;

// ---------- harness ---------------------------------------------------------

/// Fresh, empty cache directory for one test (shared-cache behaviour is
/// exercised *within* a test, never across tests).
std::string fresh_cache_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("pp-jit-test-" + std::to_string(::getpid())) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

/// Build options for tests: isolated cache, -O0 (the 150-circuit loop
/// invokes the host compiler per circuit; optimization is not under test).
JitOptions test_options(const std::string& cache_dir, bool verify = true) {
  JitOptions o;
  o.cache_dir = cache_dir;
  o.extra_cflags = "-O0";
  o.verify = verify;
  return o;
}

/// One-time probe: is there a working host C compiler?  When there is
/// not, JitEval::build must degrade with kUnavailable — asserted here so
/// even compiler-less environments test the degradation contract.
bool host_cc_available() {
  static const bool available = [] {
    Circuit c;
    const NetId a = c.add_net("a");
    c.mark_input(a);
    const NetId y = c.add_net("y");
    c.add_gate(GateKind::kNot, {a}, y);
    auto base = CompiledEval::compile(c, {a}, {y});
    EXPECT_TRUE(base.ok()) << base.status().to_string();
    auto jit = JitEval::build(*base, test_options(fresh_cache_dir("probe")));
    if (jit.ok()) return true;
    EXPECT_EQ(jit.status().code(), StatusCode::kUnavailable)
        << jit.status().to_string();
    return false;
  }();
  return available;
}

#define SKIP_WITHOUT_HOST_CC()                                          \
  do {                                                                  \
    if (!host_cc_available())                                           \
      GTEST_SKIP() << "no host C compiler; degradation covered by "     \
                      "JitEval.NoCompilerDegradesCleanly";              \
  } while (0)

// Random circuit generator in the fabric's idiom — mirrors the
// compiled-engine differential harness (tests/compiled_eval_test.cpp):
// plain gates, constant sources, a floating line, and 3-state buses whose
// enables are compile-time constants.
struct RandomCircuit {
  Circuit c;
  std::vector<NetId> ins;
  std::vector<NetId> outs;
};

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
  if (r == 0) return Logic::kX;
  return (r & 1) ? Logic::k1 : Logic::k0;
}

/// Random canonical stimulus planes (~1/8 unknown density when with_x).
void random_stimulus(util::Rng& rng, std::size_t n, bool with_x,
                     std::vector<std::uint64_t>& value,
                     std::vector<std::uint64_t>& unknown) {
  value.resize(n);
  unknown.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u =
        with_x ? rng.next_u64() & rng.next_u64() & rng.next_u64() : 0;
    value[i] = rng.next_u64() & ~u;
    unknown[i] = u;
  }
}

// ---------- combinational differential --------------------------------------

TEST(JitEval, DifferentialAgainstInterpreter150Circuits) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("diff150");
  util::Rng rng(20260807);
  // Full words, partial tails, single-word, and multi-pass (> W*64 lanes
  // with W=8 means two kernel passes at 640) lane counts.
  static constexpr std::size_t kLaneChoices[] = {64, 65, 127, 192,
                                                 485, 512, 640};
  int jitted = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomCircuit rc = make_random_circuit(rng);
    ASSERT_EQ(rc.c.validate(), "");
    auto interp = CompiledEval::compile(rc.c, rc.ins, rc.outs);
    ASSERT_TRUE(interp.ok()) << "trial " << trial << ": "
                             << interp.status().to_string();
    // verify=false: this test *is* the differential gate; the in-build
    // gate has its own dedicated coverage below.
    auto jit = JitEval::build(*interp, test_options(cache, false));
    ASSERT_TRUE(jit.ok()) << "trial " << trial << ": "
                          << jit.status().to_string();
    ++jitted;

    const std::size_t lanes = kLaneChoices[trial % std::size(kLaneChoices)];
    const std::size_t words = (lanes + kW - 1) / kW;
    const std::size_t nin = rc.ins.size(), nout = rc.outs.size();
    std::vector<std::uint64_t> in_v, in_u;
    random_stimulus(rng, nin * words, trial % 3 != 2, in_v, in_u);

    std::vector<std::uint64_t> want_v(nout * words), want_u(nout * words);
    ASSERT_TRUE(interp->eval_wide(in_v, in_u, want_v, want_u, lanes).ok());
    std::vector<std::uint64_t> got_v(nout * words), got_u(nout * words);
    ASSERT_TRUE(jit->eval_wide(in_v, in_u, got_v, got_u, lanes).ok());
    EXPECT_EQ(got_v, want_v) << "trial " << trial << " value plane, "
                             << lanes << " lanes";
    EXPECT_EQ(got_u, want_u) << "trial " << trial << " unknown plane, "
                             << lanes << " lanes";

    // Every 10th trial: the settled event simulator as an independent
    // oracle on the packed path (X lanes included; Z collapses to X at
    // the packing boundary exactly as the interpreter's tests assert).
    if (trial % 10 == 0) {
      std::vector<PackedBits> in(nin);
      for (auto& p : in)
        for (int lane = 0; lane < Evaluator::kBatchLanes; ++lane)
          set_lane(p, lane, random_logic(rng));
      Simulator sim(rc.c);
      std::vector<PackedBits> expect(nout);
      for (int lane = 0; lane < Evaluator::kBatchLanes; ++lane) {
        for (std::size_t j = 0; j < nin; ++j)
          sim.set_input(rc.ins[j], get_lane(in[j], lane));
        ASSERT_TRUE(sim.settle()) << "trial " << trial << " oscillated";
        for (std::size_t k = 0; k < nout; ++k)
          set_lane(expect[k], lane, sim.value(rc.outs[k]));
      }
      std::vector<PackedBits> got(nout);
      ASSERT_TRUE(jit->eval_packed(in, got).ok());
      for (std::size_t k = 0; k < nout; ++k)
        EXPECT_EQ(got[k], expect[k])
            << "trial " << trial << " output " << k << " vs event oracle";
    }
  }
  EXPECT_EQ(jitted, 150);
}

TEST(JitEval, PolarityFoldCircuitsMatchOracle) {
  // The hand-built fold circuits (tests/fold_circuits.h) through the
  // native kernel: inverted aliases reach the JIT as cached kNots, so the
  // kernel must equal the event oracle and the interpreter on both planes.
  SKIP_WITHOUT_HOST_CC();
  const std::string dir = fresh_cache_dir("fold");
  util::Rng rng(20261020);
  for (const fold_test::FoldCase& f : fold_test::fold_cases()) {
    SCOPED_TRACE(f.name);
    auto base = fold_test::compile(f, {});
    ASSERT_TRUE(base.ok()) << base.status().to_string();
    EXPECT_EQ(base->instruction_count(), f.folded);
    auto jit = JitEval::build(*base, test_options(dir));
    ASSERT_TRUE(jit.ok()) << jit.status().to_string();
    const std::size_t cycles = f.regs.empty() ? 1 : 6;
    for (const bool unknowns : {true, false}) {
      SCOPED_TRACE(unknowns ? "X/Z stimulus" : "known stimulus");
      const auto s =
          fold_test::make_stimulus(f.ins.size(), cycles, 150, unknowns, rng);
      const fold_test::Planes want = fold_test::reference(f, s);
      EXPECT_EQ(fold_test::run(*jit, f, s), want);
      EXPECT_EQ(fold_test::run(*base, f, s), want);
    }
  }
}

TEST(JitEval, InBuildVerificationGateAndClone) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("gate");
  util::Rng rng(7);
  RandomCircuit rc = make_random_circuit(rng);
  auto interp = CompiledEval::compile(rc.c, rc.ins, rc.outs);
  ASSERT_TRUE(interp.ok());
  // verify=true: the build runs its own bit-for-bit gate before returning.
  auto jit = JitEval::build(*interp, test_options(cache, true));
  ASSERT_TRUE(jit.ok()) << jit.status().to_string();
  EXPECT_STREQ(jit->name(), "jit-native");
  EXPECT_EQ(jit->input_count(), rc.ins.size());
  EXPECT_EQ(jit->output_count(), rc.outs.size());
  EXPECT_GE(jit->preferred_words(), 1u);
  // The gate's own passes must not leak into the served counters.
  EXPECT_EQ(jit->kernel_stats().fast_passes + jit->kernel_stats().slow_passes,
            0u);

  // A clone shares the dlopened kernel and agrees bit-for-bit.
  auto dup = jit->clone();
  ASSERT_NE(dup, nullptr);
  const std::size_t lanes = 100;
  const std::size_t words = (lanes + kW - 1) / kW;
  std::vector<std::uint64_t> in_v, in_u;
  random_stimulus(rng, rc.ins.size() * words, true, in_v, in_u);
  std::vector<std::uint64_t> a_v(rc.outs.size() * words), a_u(a_v.size()),
      b_v(a_v.size()), b_u(a_v.size());
  ASSERT_TRUE(jit->eval_wide(in_v, in_u, a_v, a_u, lanes).ok());
  ASSERT_TRUE(dup->eval_wide(in_v, in_u, b_v, b_u, lanes).ok());
  EXPECT_EQ(a_v, b_v);
  EXPECT_EQ(a_u, b_u);
}

// ---------- sequential parity -----------------------------------------------

/// Cycle-major SoA plane staging, as in the sequential engine tests.
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

/// 2-bit counter with async-low reset plus a free-running DFF whose Q must
/// stay X forever (mirrors the interpreter's exact-sequence test).
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

TEST(JitEval, SequentialCounterExactSequence) {
  SKIP_WITHOUT_HOST_CC();
  CounterCircuit cc;
  ASSERT_EQ(cc.c.validate(), "");
  auto interp =
      CompiledEval::compile_sequential(cc.c, {cc.rstn}, {cc.q0, cc.q1, cc.qf});
  ASSERT_TRUE(interp.ok()) << interp.status().to_string();
  auto jit =
      JitEval::build(*interp, test_options(fresh_cache_dir("counter"), true));
  ASSERT_TRUE(jit.ok()) << jit.status().to_string();

  const std::size_t cycles = 6, lanes = 2;
  // Lane 0 pulses reset low in cycle 0; lane 1 never resets.
  Planes in(1, cycles, lanes);
  for (std::size_t cy = 0; cy < cycles; ++cy) {
    in.set(cy, 0, 0, cy == 0 ? Logic::k0 : Logic::k1);
    in.set(cy, 0, 1, Logic::k1);
  }
  Planes got(3, cycles, lanes, ~std::uint64_t{0});
  ASSERT_TRUE(jit->run_cycles(in.value, in.unknown, got.value, got.unknown,
                              cycles, lanes)
                  .ok());

  // Pre-edge sampling: reset settles within cycle 0, then the count runs.
  const Logic exp_q0[] = {Logic::k0, Logic::k0, Logic::k1,
                          Logic::k0, Logic::k1, Logic::k0};
  const Logic exp_q1[] = {Logic::k0, Logic::k0, Logic::k0,
                          Logic::k1, Logic::k1, Logic::k0};
  for (std::size_t cy = 0; cy < cycles; ++cy) {
    EXPECT_EQ(got.get(cy, 0, 0), exp_q0[cy]) << "q0 cycle " << cy;
    EXPECT_EQ(got.get(cy, 1, 0), exp_q1[cy]) << "q1 cycle " << cy;
    EXPECT_EQ(got.get(cy, 2, 0), Logic::kX) << "qf cycle " << cy;
    // Lane 1 never reset: counter bits stay power-on X.
    EXPECT_EQ(got.get(cy, 0, 1), Logic::kX) << "lane 1 q0 cycle " << cy;
    EXPECT_EQ(got.get(cy, 1, 1), Logic::kX) << "lane 1 q1 cycle " << cy;
  }

  // Carried state: the interpreter and the JIT, both continuing with
  // reset=false after the same prefix, must agree bit-for-bit.
  Planes in2(1, 4, lanes);
  for (std::size_t cy = 0; cy < 4; ++cy)
    for (std::size_t lane = 0; lane < lanes; ++lane)
      in2.set(cy, 0, lane, Logic::k1);
  Planes want2(3, 4, lanes), got2(3, 4, lanes);
  Planes prefix(3, cycles, lanes);
  ASSERT_TRUE(interp->run_cycles(in.value, in.unknown, prefix.value,
                                 prefix.unknown, cycles, lanes)
                  .ok());
  ASSERT_TRUE(interp->run_cycles(in2.value, in2.unknown, want2.value,
                                 want2.unknown, 4, lanes, /*reset=*/false)
                  .ok());
  ASSERT_TRUE(jit->run_cycles(in2.value, in2.unknown, got2.value,
                              got2.unknown, 4, lanes, /*reset=*/false)
                  .ok());
  EXPECT_EQ(got2.value, want2.value);
  EXPECT_EQ(got2.unknown, want2.unknown);

  // Changing the lane count without reset must be rejected (the carried
  // register planes are at the previous width), as the interpreter does.
  Planes in3(1, 1, lanes + kW);
  Planes out3(3, 1, lanes + kW);
  EXPECT_EQ(jit->run_cycles(in3.value, in3.unknown, out3.value, out3.unknown,
                            1, lanes + kW, /*reset=*/false)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(JitEval, SequentialDifferentialAgainstInterpreter) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("seqdiff");
  util::Rng rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    // Random DFF fabric: 1..3 registers (async reset on some), feedback
    // closed only through state, plus a small combinational cone.
    Circuit c;
    const NetId clk = c.add_net("clk");
    c.mark_input(clk);
    const NetId rstn = c.add_net("rstn");
    c.mark_input(rstn);
    std::vector<NetId> pool;
    const int nin = 1 + static_cast<int>(rng.next_below(3));
    std::vector<NetId> ins{rstn};
    for (int i = 0; i < nin; ++i) {
      const NetId n = c.add_net("in" + std::to_string(i));
      c.mark_input(n);
      ins.push_back(n);
      pool.push_back(n);
    }
    const int nregs = 1 + static_cast<int>(rng.next_below(3));
    std::vector<NetId> qs;
    for (int r = 0; r < nregs; ++r) {
      const NetId q = c.add_net("q" + std::to_string(r));
      qs.push_back(q);
      pool.push_back(q);
    }
    auto pick = [&] { return pool[rng.next_below(pool.size())]; };
    const int ngates = 3 + static_cast<int>(rng.next_below(10));
    for (int g = 0; g < ngates; ++g) {
      static constexpr GateKind kKinds[] = {GateKind::kNand, GateKind::kAnd,
                                            GateKind::kOr,   GateKind::kXor,
                                            GateKind::kNot};
      const GateKind kind = kKinds[rng.next_below(std::size(kKinds))];
      const int arity = kind == GateKind::kNot
                            ? 1
                            : 1 + static_cast<int>(rng.next_below(2));
      std::vector<NetId> inputs;
      for (int i = 0; i < arity; ++i) inputs.push_back(pick());
      const NetId out = c.add_net("n" + std::to_string(g));
      c.add_gate(kind, std::move(inputs), out);
      pool.push_back(out);
    }
    std::vector<NetId> outs;
    for (int r = 0; r < nregs; ++r) {
      const NetId d = pick();
      if (rng.next_bool())
        c.add_gate(GateKind::kDff, {d, clk, rstn}, qs[r]);
      else
        c.add_gate(GateKind::kDff, {d, clk}, qs[r]);
      outs.push_back(qs[r]);
    }
    outs.push_back(pool.back());
    ASSERT_EQ(c.validate(), "") << "trial " << trial;

    auto interp = CompiledEval::compile_sequential(c, ins, outs);
    ASSERT_TRUE(interp.ok()) << "trial " << trial << ": "
                             << interp.status().to_string();
    auto jit = JitEval::build(*interp, test_options(cache, false));
    ASSERT_TRUE(jit.ok()) << "trial " << trial << ": "
                          << jit.status().to_string();

    const std::size_t lanes = 65 + rng.next_below(128);
    const std::size_t cycles = 1 + rng.next_below(16);
    const std::size_t words = (lanes + kW - 1) / kW;
    std::vector<std::uint64_t> in_v, in_u;
    random_stimulus(rng, ins.size() * cycles * words, trial % 2 == 0, in_v,
                    in_u);
    const std::size_t osz = outs.size() * cycles * words;
    std::vector<std::uint64_t> want_v(osz), want_u(osz), got_v(osz),
        got_u(osz);
    ASSERT_TRUE(
        interp->run_cycles(in_v, in_u, want_v, want_u, cycles, lanes).ok())
        << "trial " << trial;
    ASSERT_TRUE(jit->run_cycles(in_v, in_u, got_v, got_u, cycles, lanes).ok())
        << "trial " << trial;
    EXPECT_EQ(got_v, want_v) << "trial " << trial << " value plane";
    EXPECT_EQ(got_u, want_u) << "trial " << trial << " unknown plane";

    // Continue both engines with carried state (reset=false).
    ASSERT_TRUE(interp
                    ->run_cycles(in_v, in_u, want_v, want_u, cycles, lanes,
                                 /*reset=*/false)
                    .ok());
    ASSERT_TRUE(jit->run_cycles(in_v, in_u, got_v, got_u, cycles, lanes,
                                /*reset=*/false)
                    .ok());
    EXPECT_EQ(got_v, want_v) << "trial " << trial << " carried value plane";
    EXPECT_EQ(got_u, want_u) << "trial " << trial << " carried unknown plane";
  }
}

// ---------- modal parity -----------------------------------------------------

TEST(JitEval, ModalEvalModesParity) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("modal");
  // One polymorphic gate: NAND in mode 0, NOR in mode 1, XOR in mode 2 —
  // the paper's environment-polymorphic cell at its simplest.
  Circuit c;
  const NetId a = c.add_net("a"), b = c.add_net("b");
  c.mark_input(a);
  c.mark_input(b);
  const NetId y = c.add_net("y"), z = c.add_net("z");
  const GateId poly = c.add_gate(GateKind::kNand, {a, b}, y);
  c.add_gate(GateKind::kXor, {y, a}, z);
  const std::vector<std::vector<ModeOverride>> overrides = {
      {},
      {{poly, GateKind::kNor}},
      {{poly, GateKind::kXor}},
  };
  auto interp = CompiledEval::compile_modal(c, {a, b}, {y, z}, overrides);
  ASSERT_TRUE(interp.ok()) << interp.status().to_string();
  ASSERT_EQ(interp->mode_count(), 3u);
  auto jit = JitEval::build(*interp, test_options(cache, true));
  ASSERT_TRUE(jit.ok()) << jit.status().to_string();
  EXPECT_EQ(jit->mode_count(), 3u);

  util::Rng rng(99);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{64},
                                  std::size_t{70}, std::size_t{200}}) {
    const std::size_t wpm = (lanes + kW - 1) / kW;
    std::vector<std::uint64_t> in_v, in_u;
    random_stimulus(rng, 2 * 3 * wpm, true, in_v, in_u);
    std::vector<std::uint64_t> want_v(2 * 3 * wpm), want_u(2 * 3 * wpm),
        got_v(2 * 3 * wpm), got_u(2 * 3 * wpm);
    ASSERT_TRUE(interp->eval_modes(in_v, in_u, want_v, want_u, lanes).ok());
    ASSERT_TRUE(jit->eval_modes(in_v, in_u, got_v, got_u, lanes).ok());
    EXPECT_EQ(got_v, want_v) << lanes << " lanes/mode, value plane";
    EXPECT_EQ(got_u, want_u) << lanes << " lanes/mode, unknown plane";
  }
}

// ---------- degradation ------------------------------------------------------

TEST(JitEval, NoCompilerDegradesCleanly) {
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kNot, {a}, y);
  auto interp = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(interp.ok());

  JitOptions o = test_options(fresh_cache_dir("nocc"));
  o.cc = "/nonexistent/pp-jit-no-such-compiler";
  auto jit = JitEval::build(*interp, o);
  ASSERT_FALSE(jit.ok());
  EXPECT_EQ(jit.status().code(), StatusCode::kUnavailable);
  // The message must tell the operator how to point at a compiler.
  EXPECT_NE(jit.status().message().find("PP_JIT_CC"), std::string::npos)
      << jit.status().to_string();
}

// ---------- compiler spawn ----------------------------------------------------

TEST(JitEval, CompilerSpawnLeavesPendingStdoutAlone) {
  SKIP_WITHOUT_HOST_CC();
  Circuit c;
  const NetId a = c.add_net("a");
  c.mark_input(a);
  const NetId y = c.add_net("y");
  c.add_gate(GateKind::kBuf, {a}, y);
  auto interp = CompiledEval::compile(c, {a}, {y});
  ASSERT_TRUE(interp.ok());

  // Point fd 1 at a file and leave a marker pending in stdout's buffer
  // while a cold build spawns the compiler.  A child that touched stdio
  // would flush its inherited copy of the buffer, repeating the marker.
  static constexpr char kMarker[] = "<pp-jit-spawn-marker>";
  const std::string capture = fresh_cache_dir("spawn") + "/stdout.txt";
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  ASSERT_GE(saved, 0);
  const int fd = ::open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_GE(::dup2(fd, STDOUT_FILENO), 0);
  ::close(fd);
  std::printf("%s", kMarker);
  auto jit =
      JitEval::build(*interp, test_options(fresh_cache_dir("spawn-cache")));
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  ASSERT_TRUE(jit.ok()) << jit.status().to_string();
  EXPECT_TRUE(jit->build_info().compiled);

  std::ifstream in(capture);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  std::size_t markers = 0;
  for (std::size_t pos = text.find(kMarker); pos != std::string::npos;
       pos = text.find(kMarker, pos + 1))
    ++markers;
  EXPECT_EQ(markers, 1u) << text;
}

TEST(JitEval, OversizedProgramRefusedBeforeCompilerRuns) {
  util::Rng rng(3);
  RandomCircuit rc = make_random_circuit(rng);
  auto interp = CompiledEval::compile(rc.c, rc.ins, rc.outs);
  ASSERT_TRUE(interp.ok());
  JitOptions o = test_options(fresh_cache_dir("oversize"));
  o.max_instructions = 1;
  // Works even without a host compiler: the ceiling is checked first.
  auto jit = JitEval::build(*interp, o);
  ASSERT_FALSE(jit.ok());
  EXPECT_EQ(jit.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(jit.status().message().find("ceiling"), std::string::npos);
}

// ---------- executor integration ---------------------------------------------

/// Small deterministic circuit (full adder) for executor-level runs: no
/// floating nets, so boolean stimulus yields boolean outputs.
struct AdderCircuit {
  Circuit c;
  std::vector<NetId> ins, outs;

  AdderCircuit() {
    const NetId a = c.add_net("a"), b = c.add_net("b"), ci = c.add_net("ci");
    for (const NetId n : {a, b, ci}) c.mark_input(n);
    const NetId ab = c.add_net("ab"), s = c.add_net("s");
    c.add_gate(GateKind::kXor, {a, b}, ab);
    c.add_gate(GateKind::kXor, {ab, ci}, s);
    const NetId g = c.add_net("g"), p = c.add_net("p"), co = c.add_net("co");
    c.add_gate(GateKind::kAnd, {a, b}, g);
    c.add_gate(GateKind::kAnd, {ab, ci}, p);
    c.add_gate(GateKind::kOr, {g, p}, co);
    ins = {a, b, ci};
    outs = {s, co};
  }
};

platform::BatchExecutor make_executor(const Circuit& c,
                                      std::vector<NetId> ins,
                                      std::vector<NetId> outs) {
  auto levels = levelize(c);
  EXPECT_TRUE(levels.ok()) << levels.status().to_string();
  return platform::BatchExecutor(c, std::move(ins), std::move(outs),
                                 {"s", "co"}, std::move(*levels));
}

std::vector<platform::InputVector> adder_vectors() {
  std::vector<platform::InputVector> v;
  for (int i = 0; i < 8; ++i)
    v.push_back({(i & 1) != 0, (i & 2) != 0, (i & 4) != 0});
  return v;
}

void check_adder(const std::vector<platform::BitVector>& got) {
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const int sum = (i & 1) + ((i >> 1) & 1) + ((i >> 2) & 1);
    EXPECT_EQ(got[i][0], (sum & 1) != 0) << "vector " << i << " sum";
    EXPECT_EQ(got[i][1], sum >= 2) << "vector " << i << " carry";
  }
}

TEST(BatchExecutorJit, HotSwapAndStatsThreading) {
  SKIP_WITHOUT_HOST_CC();
  const std::string cache = fresh_cache_dir("executor");
  AdderCircuit ac;
  ASSERT_EQ(ac.c.validate(), "");

  auto ex = make_executor(ac.c, ac.ins, ac.outs);
  ex.warm_jit(test_options(cache));
  ASSERT_TRUE(ex.jit_engine_status().ok())
      << ex.jit_engine_status().to_string();

  // Forced JIT run: served by generated code, counted as a compiled run
  // (same program, native backend) with its kernel passes attributed.
  auto got = ex.run(adder_vectors(),
                    {.max_threads = 1, .engine = platform::Engine::kJit});
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  check_adder(*got);
  EXPECT_EQ(ex.stats().runs, 1u);
  EXPECT_EQ(ex.stats().compiled_runs, 1u);
  EXPECT_GE(ex.stats().jit_passes, 1u);
  EXPECT_EQ(ex.stats().jit_compiles, 1u);
  EXPECT_EQ(ex.stats().jit_cache_hits, 0u);
  EXPECT_EQ(ex.stats().jit_fallbacks, 0u);
  EXPECT_EQ(ex.last_run_stats().jit_passes, ex.stats().jit_passes);
  EXPECT_EQ(ex.last_run_stats().jit_compiles, 1u);

  // kAuto with a ready kernel hot-swaps onto it — no fallback counted.
  const auto passes_before = ex.stats().jit_passes;
  got = ex.run(adder_vectors(),
               {.max_threads = 1, .engine = platform::Engine::kAuto});
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  check_adder(*got);
  EXPECT_GT(ex.stats().jit_passes, passes_before);
  EXPECT_EQ(ex.stats().jit_fallbacks, 0u);

  // A second executor over the same circuit: the shared disk cache makes
  // its build a cache hit, and the counter threads through.
  auto ex2 = make_executor(ac.c, ac.ins, ac.outs);
  ex2.warm_jit(test_options(cache));
  ASSERT_TRUE(ex2.jit_engine_status().ok());
  got = ex2.run(adder_vectors(),
                {.max_threads = 1, .engine = platform::Engine::kJit});
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  check_adder(*got);
  EXPECT_EQ(ex2.stats().jit_compiles, 0u);
  EXPECT_EQ(ex2.stats().jit_cache_hits, 1u);
}

TEST(BatchExecutorJit, AutoFallsBackWhenBuildFails) {
  AdderCircuit ac;
  auto ex = make_executor(ac.c, ac.ins, ac.outs);
  JitOptions o = test_options(fresh_cache_dir("fallback"));
  o.cc = "/nonexistent/pp-jit-no-such-compiler";
  ex.warm_jit(o);

  // kAuto keeps serving on the interpreter while (and after) the build
  // fails, counting each JIT-requested-but-interpreter-served run.
  auto got = ex.run(adder_vectors(), {.max_threads = 1});
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  check_adder(*got);
  // The failed build parks its Status; join it to make the count exact.
  EXPECT_FALSE(ex.jit_engine_status().ok());
  got = ex.run(adder_vectors(), {.max_threads = 1});
  ASSERT_TRUE(got.ok());
  EXPECT_GE(ex.stats().jit_fallbacks, 1u);
  EXPECT_EQ(ex.last_run_stats().jit_fallbacks, 1u);
  EXPECT_EQ(ex.stats().jit_passes, 0u);

  // Forcing the JIT surfaces the build failure instead of wrong results.
  auto forced = ex.run(adder_vectors(),
                       {.max_threads = 1, .engine = platform::Engine::kJit});
  ASSERT_FALSE(forced.ok());
  EXPECT_EQ(forced.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace pp::sim
