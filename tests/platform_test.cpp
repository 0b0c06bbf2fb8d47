// pp::platform end-to-end tests: Netlist -> Compiler -> bitstream ->
// Session, verified against the behavioural netlist reference.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <span>
#include <string>

#include "arch/defects.h"
#include "core/bitstream.h"
#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/executor.h"
#include "platform/report.h"
#include "platform/session.h"
#include "sim/circuit.h"
#include "sim/jit.h"
#include "util/rng.h"

namespace pp::platform {
namespace {

/// Exhaustively check a combinational design against its netlist via
/// run_vectors.
void verify_exhaustive(const map::Netlist& nl, Session& session,
                       const RunOptions& run = {}) {
  const int n = static_cast<int>(nl.inputs().size());
  ASSERT_LE(n, 12) << "exhaustive check too wide";
  std::vector<InputVector> vectors;
  for (int v = 0; v < (1 << n); ++v) {
    InputVector in(n);
    for (int i = 0; i < n; ++i) in[i] = (v >> i) & 1;
    vectors.push_back(std::move(in));
  }
  auto results = session.run_vectors(vectors, run);
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  ASSERT_EQ(results->size(), vectors.size());
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    const auto expect = nl.evaluate(vectors[v]);
    ASSERT_EQ((*results)[v].size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ((*results)[v][k], expect[k])
          << "vector " << v << " output " << k;
  }
}

/// What a compile must reproduce byte for byte: array size, routing and
/// timing, and the CRC-32 of the bitstream without its 4-byte trailer (the
/// trailer is the CRC of everything before it, so a CRC over the whole
/// stream is the same constant for every stream).
struct CompilePin {
  int rows, cols, route_hops;
  sim::SimTime critical_path_ps;
  std::uint32_t body_crc;
};

void expect_pinned(const CompiledDesign& design, const CompilePin& pin) {
  EXPECT_EQ(design.report.fabric_rows, pin.rows);
  EXPECT_EQ(design.report.fabric_cols, pin.cols);
  EXPECT_EQ(design.report.route_hops, pin.route_hops);
  EXPECT_EQ(design.report.critical_path_ps, pin.critical_path_ps);
  const std::span<const std::uint8_t> stream(design.bitstream);
  ASSERT_GT(stream.size(), 4u);
  EXPECT_EQ(core::crc32(stream.first(stream.size() - 4)), pin.body_crc);
}

TEST(Compiler, GoldenCompileOutputs) {
  // Placement and routing are deterministic; a change that moves any of
  // these numbers changes every bitstream and must update them on purpose.
  const struct {
    const char* name;
    map::Netlist netlist;
    CompilePin pin;
  } cases[] = {
      {"parity8", map::make_parity(8), {14, 45, 215, 972, 0xb6af89e9u}},
      {"mux4", map::make_mux4(), {16, 48, 381, 1062, 0xd9f47b68u}},
      {"counter4", map::make_counter(4), {16, 47, 288, 1044, 0x492df162u}},
      {"adder4", map::make_ripple_adder(4), {40, 111, 1344, 2628, 0x83c3e64eu}},
      {"adder8", map::make_ripple_adder(8), {80, 219, 5060, 5292, 0xa994f222u}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto design = compile(c.netlist);
    ASSERT_TRUE(design.ok()) << design.status().to_string();
    expect_pinned(*design, c.pin);
  }
}

TEST(Compiler, GoldenProgramSizes) {
  // The interpreter program each design runs once resident: the elaborated
  // fabric's live cone after constant folding and polarity-aware
  // copy-propagation, which folds every feed-through hop's inverter pair
  // away.  Boundary registers close as external register loops, as in a
  // Session.
  const struct {
    const char* name;
    map::Netlist netlist;
    std::size_t instructions;
  } cases[] = {
      {"parity8", map::make_parity(8), 35},
      {"mux4", map::make_mux4(), 9},
      {"adder4", map::make_ripple_adder(4), 52},
      {"adder8", map::make_ripple_adder(8), 104},
      {"counter4", map::make_counter(4), 23},
      {"adder16", map::make_ripple_adder(16), 208},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto design = compile(c.netlist);
    ASSERT_TRUE(design.ok()) << design.status().to_string();
    auto elab = design->fabric.try_elaborate(design->delays);
    ASSERT_TRUE(elab.ok()) << elab.status().to_string();
    const auto line = [&](const map::SignalAt& at) {
      return elab->in_line(at.r, at.c, at.line);
    };
    std::vector<sim::NetId> ins, outs;
    for (const PortBinding& p : design->inputs) ins.push_back(line(p.at));
    for (const PortBinding& p : design->outputs) outs.push_back(line(p.at));
    std::vector<sim::ExternalReg> regs;
    for (const StateBinding& sb : design->state)
      regs.push_back({line(sb.q_pad), line(sb.d_at), sim::Logic::k0});
    auto engine =
        regs.empty()
            ? sim::CompiledEval::compile(elab->circuit(), ins, outs,
                                         &design->levels)
            : sim::CompiledEval::compile_sequential(elab->circuit(), ins, outs,
                                                    regs, &design->levels);
    ASSERT_TRUE(engine.ok()) << engine.status().to_string();
    EXPECT_EQ(engine->instruction_count(), c.instructions);
  }
}

TEST(Compiler, GoldenElaborationSizes) {
  // Elaboration makes only what the configuration uses: the west/north
  // boundary lines, the rows and gates of the used blocks, and the lines
  // those read or drive.  So padding a design into a larger array (as a
  // device or pool does) adds only the new boundary lines and no gate.
  // adder8 is already 80x219.  A whole-array elaboration made 212,035 nets
  // at 80x219 (parity8 105,649 gates, mux4 105,997, adder4 108,073,
  // adder8 115,769) and 838,771 nets / 457,849 gates for adder16.
  struct Size {
    std::size_t nets, gates;
  };
  const struct {
    const char* name;
    map::Netlist netlist;
    Size own;
    std::optional<Size> padded;
  } cases[] = {
      {"parity8", map::make_parity(8), {2'044, 1'705}, Size{3'484, 1'705}},
      {"mux4", map::make_mux4(), {2'488, 2'125}, Size{3'898, 2'125}},
      {"adder4", map::make_ripple_adder(4), {8'678, 7'807}, Size{9'566, 7'807}},
      {"adder8", map::make_ripple_adder(8), {28'506, 26'759}, std::nullopt},
      {"adder16", map::make_ripple_adder(16), {103'626, 100'135}, std::nullopt},
  };
  const auto expect_size = [](const CompiledDesign& d, Size want) {
    auto elab = d.fabric.try_elaborate(d.delays);
    ASSERT_TRUE(elab.ok()) << elab.status().to_string();
    EXPECT_EQ(elab->circuit().net_count(), want.nets);
    EXPECT_EQ(elab->circuit().gate_count(), want.gates);
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto design = compile(c.netlist);
    ASSERT_TRUE(design.ok()) << design.status().to_string();
    expect_size(*design, c.own);
    if (!c.padded) continue;
    auto padded = pad_to(*design, 80, 219);
    ASSERT_TRUE(padded.ok()) << padded.status().to_string();
    expect_size(*padded, *c.padded);
  }
}

TEST(Compiler, RippleAdder2ExhaustiveSerial) {
  const auto nl = map::make_ripple_adder(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_FALSE(design->bitstream.empty());
  EXPECT_EQ(design->inputs.size(), 5u);
  EXPECT_EQ(design->outputs.size(), 3u);
  EXPECT_TRUE(design->state.empty());
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_FALSE(session->sequential());
  verify_exhaustive(
      nl, *session,
      RunOptions{.max_threads = 1, .engine = Engine::kEventDriven});
}

TEST(Compiler, RippleAdder2ExhaustiveShardedClones) {
  const auto nl = map::make_ripple_adder(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  // Force the event-driven cloning path even on a single-core pool.
  verify_exhaustive(
      nl, *session,
      RunOptions{.max_threads = 4, .engine = Engine::kEventDriven});
}

TEST(Compiler, CompiledEngineExhaustive) {
  const auto nl = map::make_ripple_adder(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_FALSE(design->levels.empty());  // compiler records the levelization
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(session->compiled_engine_status().ok())
      << session->compiled_engine_status().to_string();
  // Serial and sharded bit-parallel batches, forced (no silent fallback).
  verify_exhaustive(nl, *session,
                    RunOptions{.max_threads = 1, .engine = Engine::kCompiled});
  verify_exhaustive(nl, *session,
                    RunOptions{.max_threads = 4, .engine = Engine::kCompiled});
}

TEST(Compiler, CompiledEngineServesSequentialDesigns) {
  const auto nl = map::make_counter(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  // The boundary-register design compiles sequentially: step and
  // run_cycles ride the bit-parallel engine.
  ASSERT_TRUE(session->compiled_engine_status().ok())
      << session->compiled_engine_status().to_string();

  // Three independent streams with different enable patterns, batched
  // through run_cycles, must match the netlist reference cycle for cycle.
  const std::size_t cycles = 8;
  std::vector<InputVector> stimulus;
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t c = 0; c < cycles; ++c)
      stimulus.push_back({c % (s + 2) != 0});
  auto batch = session->run_cycles(stimulus, cycles);
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_EQ(batch->size(), stimulus.size());
  for (std::size_t s = 0; s < 3; ++s) {
    auto state = nl.make_state();
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto expect = nl.step({stimulus[s * cycles + c][0]}, state);
      const BitVector& got = (*batch)[s * cycles + c];
      ASSERT_EQ(got.size(), expect.size());
      for (std::size_t k = 0; k < expect.size(); ++k)
        EXPECT_EQ(got[k], expect[k]) << "stream " << s << " cycle " << c;
    }
  }

  // The cycle counters roll up: one compiled run, one 64-lane pass group
  // of 8 cycles, two registers committing per cycle, every cycle on the
  // single-plane fast path (two-valued stimulus, binary reset).
  const ExecutorStats st = session->executor_stats();
  EXPECT_EQ(st.runs, 1u);
  EXPECT_EQ(st.compiled_runs, 1u);
  EXPECT_EQ(st.vectors_run, stimulus.size());
  EXPECT_EQ(st.cycles_run, cycles);
  EXPECT_EQ(st.state_commits, 2 * cycles);
  EXPECT_EQ(st.fast_cycle_passes, cycles);
}

TEST(Compiler, ShardedRunCyclesMatchesSerialAndNetlist) {
  // 130 streams span three 64-lane words: max_threads 1 runs them as one
  // 512-lane granule on the uncloned engine, 2 shrinks the granule to two
  // words (two shards), 4 to one word (three shards, one granule each).
  const auto nl = map::make_counter(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  const std::size_t streams = 130;
  const std::size_t cycles = 8;
  std::vector<InputVector> stimulus;  // stream s enables on the bits of s
  for (std::size_t s = 0; s < streams; ++s)
    for (std::size_t c = 0; c < cycles; ++c)
      stimulus.push_back({((s >> c) & 1) != 0});

  std::vector<BitVector> serial;
  for (const auto& [threads, granules] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 2}, {4, 3}}) {
    SCOPED_TRACE("max_threads " + std::to_string(threads));
    auto session = Session::load(*design);
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    auto batch = session->run_cycles(
        stimulus, cycles,
        RunOptions{.max_threads = threads, .engine = Engine::kCompiled});
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();
    ASSERT_EQ(batch->size(), stimulus.size());
    for (std::size_t s = 0; s < streams; ++s) {
      auto state = nl.make_state();
      for (std::size_t c = 0; c < cycles; ++c)
        ASSERT_EQ((*batch)[s * cycles + c],
                  nl.step({stimulus[s * cycles + c][0]}, state))
            << "stream " << s << " cycle " << c;
    }
    if (serial.empty()) serial = *batch;
    EXPECT_EQ(*batch, serial);

    // One pass group per granule: every granule runs all 8 cycles and
    // commits both registers each cycle, all on the fast path.
    const ExecutorStats st = session->executor_stats();
    EXPECT_EQ(st.runs, 1u);
    EXPECT_EQ(st.vectors_run, stimulus.size());
    EXPECT_EQ(st.cycles_run, granules * cycles);
    EXPECT_EQ(st.state_commits, granules * 2 * cycles);
    EXPECT_EQ(st.fast_cycle_passes, granules * cycles);
  }
}

TEST(Compiler, SequentialStepResyncsInteractiveView) {
  auto design = compile(map::make_counter(2));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto fast = Session::load(*design);
  ASSERT_TRUE(fast.ok()) << fast.status().to_string();
  auto ref = Session::load(*design);
  ASSERT_TRUE(ref.ok()) << ref.status().to_string();
  (void)ref->simulator();  // pins ref to the event path

  const auto expect_agreement = [&] {
    for (const std::string& name : fast->input_names()) {
      auto a = fast->peek(name);
      auto b = ref->peek(name);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "port " << name;
    }
    for (const std::string& name : fast->output_names()) {
      auto a = fast->peek(name);
      auto b = ref->peek(name);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "port " << name;
    }
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    auto a = fast->step({true});
    auto b = ref->step({true});
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(*a, *b) << "cycle " << cycle;
  }
  // peek resyncs the stale interactive simulator to the compiled register
  // file — every bound port must agree with the pure event-path session.
  expect_agreement();

  // An interactive poke retires the compiled path; stepping on after it
  // still agrees with the reference.
  ASSERT_TRUE(fast->poke("en", false).ok());
  ASSERT_TRUE(ref->poke("en", false).ok());
  ASSERT_TRUE(fast->settle().ok());
  ASSERT_TRUE(ref->settle().ok());
  expect_agreement();
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto a = fast->step({cycle % 2 == 0});
    auto b = ref->step({cycle % 2 == 0});
    ASSERT_TRUE(a.ok()) << a.status().to_string();
    ASSERT_TRUE(b.ok()) << b.status().to_string();
    EXPECT_EQ(*a, *b) << "cycle " << cycle;
  }
}

TEST(Compiler, Mux4Exhaustive) {
  // make_mux4 exercises 3-input ANDs and a 4-input OR (wide-cell
  // decomposition) plus kNot cells.
  const auto nl = map::make_mux4();
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  verify_exhaustive(nl, *session);
}

TEST(Compiler, ParityExhaustive) {
  const auto nl = map::make_parity(5);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  verify_exhaustive(nl, *session);
}

TEST(Compiler, NamedPortsPokePeek) {
  const auto nl = map::make_ripple_adder(2);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  // 1 + 2 (+ carry in) = 0b11: poke by name, read by name.
  ASSERT_TRUE(session->poke("a0", true).ok());
  ASSERT_TRUE(session->poke("a1", false).ok());
  ASSERT_TRUE(session->poke("b0", false).ok());
  ASSERT_TRUE(session->poke("b1", true).ok());
  ASSERT_TRUE(session->poke("cin", false).ok());
  ASSERT_TRUE(session->settle().ok());
  EXPECT_EQ(session->peek_bool("s0").value(), true);
  EXPECT_EQ(session->peek_bool("s1").value(), true);
  EXPECT_EQ(session->peek_bool("out2").value(), false);  // unnamed cout
  EXPECT_EQ(session->poke("nope", true).code(), StatusCode::kNotFound);
  EXPECT_EQ(session->peek("nope").status().code(), StatusCode::kNotFound);
}

TEST(Compiler, SequentialCounterStepsLikeNetlist) {
  const auto nl = map::make_counter(3);
  auto design = compile(nl);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_EQ(design->state.size(), 3u);
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_TRUE(session->sequential());

  auto state = nl.make_state();
  for (int cycle = 0; cycle < 12; ++cycle) {
    const bool en = cycle != 5;  // hold one cycle mid-count
    const auto expect = nl.step({en}, state);
    auto got = session->step({en});
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_EQ(got->size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k)
      EXPECT_EQ((*got)[k], expect[k]) << "cycle " << cycle << " q" << k;
  }
}

TEST(Compiler, RunVectorsRefusesSequentialDesigns) {
  auto design = compile(map::make_counter(2));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  std::vector<InputVector> vectors{{true}};
  EXPECT_EQ(session->run_vectors(vectors).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Compiler, DefectAvoidanceRelocatesAndStillComputes) {
  const auto nl = map::make_parity(3);
  // First learn the clean auto-size, then mark defects under the first tile
  // site on a fabric of the same size.
  auto clean = compile(nl);
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  const int rows = clean->report.fabric_rows;
  const int cols = clean->report.fabric_cols + 8;  // room to slide east

  arch::DefectMap defects(rows, cols);
  defects.mark_crosspoint(1, 3, 0, 0);  // node 0 literal block site
  defects.mark_driver(3, 8, 0);         // node 1 literal block site

  CompileOptions options;
  options.defects = &defects;
  auto design = compile(nl, options);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_EQ(arch::conflicts(design->fabric, defects), 0);
  expect_pinned(*design, {4, 23, 23, 270, 0x78467125u});
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  verify_exhaustive(nl, *session);
}

TEST(Compiler, FpgaBaselineTargetIsAccountingOnly) {
  CompileOptions options;
  options.target = Target::kFpgaBaseline;
  auto design = compile(map::make_ripple_adder(4), options);
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  EXPECT_GT(design->report.baseline.luts, 0);
  EXPECT_GT(design->report.baseline.config_bits, 0);
  EXPECT_TRUE(design->bitstream.empty());
  EXPECT_EQ(Session::load(*design).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Compiler, ReportMatchesSharedAccounting) {
  auto design = compile(map::make_ripple_adder(2));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  const FabricStats direct = fabric_stats(design->fabric);
  EXPECT_EQ(design->report.fabric.used_blocks, direct.used_blocks);
  EXPECT_EQ(design->report.fabric.active_cells, direct.active_cells);
  EXPECT_EQ(design->report.fabric.config_bits,
            core::config_bits(direct.used_blocks));
  EXPECT_GT(design->report.mapped_nodes, 0);
  EXPECT_GT(design->report.route_hops, 0);
  EXPECT_GT(design->report.critical_path_ps, 0u);
}

TEST(Session, LoadRejectsCorruptBitstream) {
  auto design = compile(map::make_parity(3));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  design->bitstream[10] ^= 0x01;
  EXPECT_EQ(Session::load(*design).status().code(), StatusCode::kDataLoss);
}

TEST(Session, StepRejectsWrongInputCount) {
  auto design = compile(map::make_counter(2));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_EQ(session->step({true, false}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, ExecutorStatsTrackRunsVectorsAndEngine) {
  auto design = compile(map::make_parity(4));
  ASSERT_TRUE(design.ok()) << design.status().to_string();
  auto session = Session::load(*design);
  ASSERT_TRUE(session.ok()) << session.status().to_string();

  // All-zero before the first batch run.
  EXPECT_EQ(session->executor_stats().runs, 0u);
  EXPECT_EQ(session->executor_stats().vectors_run, 0u);

  std::vector<InputVector> vectors(100, InputVector(4, false));
  ASSERT_TRUE(session->run_vectors(vectors).ok());  // kAuto -> compiled
  auto stats = session->executor_stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.vectors_run, 100u);
  EXPECT_EQ(stats.compiled_runs, 1u);
  EXPECT_EQ(stats.event_runs, 0u);
  // BitVector stimulus is two-valued, so every compiled kernel pass of a
  // fast-path-eligible design is a fast pass.
  EXPECT_GT(stats.fast_passes + stats.slow_passes, 0u);
  const auto passes_after_compiled = stats.fast_passes + stats.slow_passes;

  ASSERT_TRUE(
      session->run_vectors(vectors, {.engine = Engine::kEventDriven}).ok());
  stats = session->executor_stats();
  EXPECT_EQ(stats.runs, 2u);
  EXPECT_EQ(stats.vectors_run, 200u);
  EXPECT_EQ(stats.compiled_runs, 1u);
  EXPECT_EQ(stats.event_runs, 1u);
  // The event engine contributes no compiled kernel passes.
  EXPECT_EQ(stats.fast_passes + stats.slow_passes, passes_after_compiled);

  // A failed run (wrong vector width) reaches no engine and counts nowhere.
  const std::vector<InputVector> bad(1, InputVector(3));
  EXPECT_FALSE(session->run_vectors(bad).ok());
  EXPECT_EQ(session->executor_stats().runs, 2u);
}

/// A combinational circuit wider than one 64-bit word: `kWideInputs`
/// inputs, output k = NOT input k, and a last output holding the parity of
/// every input.  Each stimulus vector spans two words, so every plane row
/// of the packer and every result bit of the unpacker is pinned by a
/// reference the test computes directly.
constexpr std::size_t kWideInputs = 70;

struct WideCircuit {
  sim::Circuit c;
  std::vector<sim::NetId> ins, outs;
  std::vector<std::string> names;

  WideCircuit() {
    for (std::size_t i = 0; i < kWideInputs; ++i) {
      ins.push_back(c.add_net("in" + std::to_string(i)));
      c.mark_input(ins.back());
    }
    for (std::size_t i = 0; i < kWideInputs; ++i) {
      outs.push_back(c.add_net("not" + std::to_string(i)));
      c.add_gate(sim::GateKind::kNot, {ins[i]}, outs.back());
    }
    sim::NetId parity = ins[0];
    for (std::size_t i = 1; i < kWideInputs; ++i) {
      const sim::NetId next = c.add_net("par" + std::to_string(i));
      c.add_gate(sim::GateKind::kXor, {parity, ins[i]}, next);
      parity = next;
    }
    outs.push_back(parity);
    for (const sim::NetId n : outs) names.push_back(c.net_name(n));
  }

  [[nodiscard]] static BitVector expect(const InputVector& in) {
    BitVector out(kWideInputs + 1);
    bool parity = false;
    for (std::size_t i = 0; i < kWideInputs; ++i) {
      out[i] = !in[i];
      parity = parity != in[i];
    }
    out[kWideInputs] = parity;
    return out;
  }
};

TEST(BatchExecutor, WideInputsAcrossWordAndGranuleBoundaries) {
  WideCircuit wc;
  ASSERT_EQ(wc.c.validate(), "");
  BatchExecutor ex(wc.c, wc.ins, wc.outs, wc.names, {});
  std::vector<Engine> engines = {Engine::kCompiled, Engine::kEventDriven};
  sim::JitOptions jit;
  jit.cache_dir = (std::filesystem::temp_directory_path() /
                   ("pp-platform-test-" + std::to_string(::getpid())))
                      .string();
  jit.extra_cflags = "-O0";
  ex.warm_jit(jit);
  if (const Status s = ex.jit_engine_status(); s.ok())
    engines.push_back(Engine::kJit);
  else  // no host compiler: the JIT leg is skipped, the rest still runs
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.to_string();

  util::Rng rng(65);
  constexpr std::size_t kCycles = 3;
  for (const std::size_t count : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 1000u}) {
    std::vector<InputVector> vectors(count * kCycles, InputVector(kWideInputs));
    for (InputVector& v : vectors)
      for (std::size_t i = 0; i < kWideInputs; ++i) v[i] = rng.next_bool();
    const std::span<const InputVector> independent(vectors.data(), count);
    for (const Engine engine : engines)
      for (const std::size_t threads : {1u, 4u}) {
        const RunOptions run{.max_threads = threads, .engine = engine};
        const std::string where = "count " + std::to_string(count) +
                                  " engine " +
                                  std::to_string(static_cast<int>(engine)) +
                                  " threads " + std::to_string(threads);
        auto got = ex.run(independent, run);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().to_string();
        ASSERT_EQ(got->size(), count) << where;
        for (std::size_t v = 0; v < count; ++v)
          ASSERT_EQ((*got)[v], WideCircuit::expect(vectors[v]))
              << where << " vector " << v;
        // The clocked packer lays cycles out as plane rows: `count`
        // streams of kCycles vectors each, one result per cycle.
        auto cycles = ex.run_cycles(vectors, kCycles, run);
        ASSERT_TRUE(cycles.ok()) << where << ": " << cycles.status().to_string();
        ASSERT_EQ(cycles->size(), vectors.size()) << where;
        for (std::size_t v = 0; v < vectors.size(); ++v)
          ASSERT_EQ((*cycles)[v], WideCircuit::expect(vectors[v]))
              << where << " cycled vector " << v;
      }
  }
  std::error_code ec;
  std::filesystem::remove_all(jit.cache_dir, ec);
}

}  // namespace
}  // namespace pp::platform
