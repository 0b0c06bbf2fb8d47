// ENGINE-COMPARE: vectors/sec of the two run_vectors evaluation engines on
// the fig10 datapath (ripple-carry adder, compiled through the platform
// pipeline).  The event-driven path clones settled simulator state and
// replays one vector at a time; the bit-parallel CompiledEval engine
// levelizes the elaborated fabric and evaluates wide batches over a flat
// instruction array.  Two acceptance gates:
//  * >= 10x single-thread speedup, compiled vs event-driven (PR 2's gate);
//  * >= 2x single-thread compiled-kernel throughput (vectors*gates/s, 10k
//    vectors on the 16-bit datapath), wide SoA kernel vs the PR 2 scalar
//    64-lane kernel ({wide_words=1, two_valued=false, optimize=false}),
//    outputs bit-identical.
// It also records each datapath's platform::compile and Session::load times
// (median of 3 each), its warm whole-batch run_vectors throughput (pack,
// kernel, unpack,
// sharding), single-thread and sharded, and the 16-bit datapath's cold JIT
// build time.  Kernels are timed as the median of 5 samples of >= 2 ms.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.h"
#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/session.h"
#include "sim/jit.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

double run_ms(pp::platform::Session& session,
              const std::vector<pp::platform::InputVector>& vectors,
              const pp::platform::RunOptions& options,
              std::vector<pp::platform::BitVector>& out, bool& ok) {
  const auto t0 = std::chrono::steady_clock::now();
  auto results = session.run_vectors(vectors, options);
  const auto t1 = std::chrono::steady_clock::now();
  if (!results.ok()) {
    std::printf("run_vectors: %s\n", results.status().to_string().c_str());
    ok = false;
  } else {
    out = std::move(*results);
  }
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Whole-batch run_vectors throughput once warm (engine built, pool awake):
/// one untimed call, then the median of five samples of ten back-to-back
/// calls each, so one sample outlasts a thread-pool wake-up.  Every call's
/// results must equal `expect`.
double warm_vec_per_s(pp::platform::Session& session,
                      const std::vector<pp::platform::InputVector>& vectors,
                      const pp::platform::RunOptions& options,
                      const std::vector<pp::platform::BitVector>& expect,
                      bool& ok) {
  std::vector<pp::platform::BitVector> out;
  auto call = [&] {
    const double ms = run_ms(session, vectors, options, out, ok);
    ok = ok && out == expect;
    return ms;
  };
  (void)call();
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    double sum = 0;
    for (int pass = 0; pass < 10; ++pass) sum += call();
    ms.push_back(sum / 10);
  }
  std::sort(ms.begin(), ms.end());
  return ms[2] > 0 ? static_cast<double>(vectors.size()) / (ms[2] / 1e3) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  pp::bench::init(argc, argv);
  using namespace pp;
  bench::experiment_header(
      "ENGINE-COMPARE run_vectors: event-driven clones vs bit-parallel "
      "CompiledEval",
      "the fig10 adder datapath under batch stimulus; a purely combinational "
      "configured fabric needs no event wheel, only its settled function");

  std::printf("thread pool: %zu worker(s)\n\n",
              util::global_pool().worker_count());

  util::Table t("fig10 datapath batch throughput (2048 vectors)");
  t.header({"bits", "compile (ms)", "load (ms)", "instrs", "levels",
            "event (ms)",
            "compiled (ms)", "speedup", "compiled vec/s", "sharded vec/s",
            "match"});

  bool all_ok = true;
  double min_speedup = 1e300;
  for (const int bits : {4, 8, 16}) {
    const auto nl = map::make_ripple_adder(bits);
    std::vector<double> compile_ms;
    auto timed_compile = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      auto compiled = platform::compile(nl);
      compile_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      return compiled;
    };
    auto design = timed_compile();
    for (int rep = 1; rep < 3 && design.ok(); ++rep) design = timed_compile();
    if (!design.ok())
      return std::printf("%s\n", design.status().to_string().c_str()), 1;
    std::sort(compile_ms.begin(), compile_ms.end());
    bench::record("compile_ms_adder" + std::to_string(bits), compile_ms[1]);
    // Session::load: decode, elaborate, settle the event simulator.
    std::vector<double> load_ms;
    auto timed_load = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      auto loaded = platform::Session::load(*design);
      load_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      return loaded;
    };
    auto session = timed_load();
    for (int rep = 1; rep < 3 && session.ok(); ++rep) session = timed_load();
    if (!session.ok())
      return std::printf("%s\n", session.status().to_string().c_str()), 1;
    std::sort(load_ms.begin(), load_ms.end());
    bench::record("load_ms_adder" + std::to_string(bits), load_ms[1]);
    if (const Status s = session->compiled_engine_status(); !s.ok())
      return std::printf("compiled engine: %s\n", s.to_string().c_str()), 1;

    const std::size_t nvec = 2048;
    util::Rng rng(1000 + bits);
    std::vector<platform::InputVector> vectors(nvec);
    for (auto& v : vectors) {
      v.resize(nl.inputs().size());
      for (std::size_t j = 0; j < v.size(); ++j) v[j] = rng.next_bool();
    }

    bool ok = true;
    std::vector<platform::BitVector> ref, fast;
    const double event_ms = run_ms(
        *session, vectors,
        {.max_threads = 1, .engine = platform::Engine::kEventDriven}, ref, ok);
    // The speedup gate divides one cold call by one cold call.
    const double compiled_ms = run_ms(
        *session, vectors,
        {.max_threads = 1, .engine = platform::Engine::kCompiled}, fast, ok);
    ok = ok && ref == fast;
    const double compiled_vps = warm_vec_per_s(
        *session, vectors,
        {.max_threads = 1, .engine = platform::Engine::kCompiled}, ref, ok);
    const double sharded_vps = warm_vec_per_s(
        *session, vectors,
        {.max_threads = 0, .engine = platform::Engine::kCompiled}, ref, ok);
    all_ok = all_ok && ok;
    bench::record("run_1t_vec_per_s_adder" + std::to_string(bits),
                  compiled_vps);
    bench::record("run_nt_vec_per_s_adder" + std::to_string(bits),
                  sharded_vps);

    const double speedup = event_ms / compiled_ms;
    min_speedup = std::min(min_speedup, speedup);
    // Session caches one compiled engine per design; probe its shape via a
    // fresh compile of the elaborated circuit the session simulates.
    auto probe = sim::CompiledEval::compile(
        session->circuit(),
        [&] {
          std::vector<sim::NetId> nets;
          for (const auto& name : session->input_names())
            nets.push_back(session->net(name).value());
          return nets;
        }(),
        [&] {
          std::vector<sim::NetId> nets;
          for (const auto& name : session->output_names())
            nets.push_back(session->net(name).value());
          return nets;
        }(),
        &design->levels);
    t.row({util::Table::num(static_cast<long long>(bits)),
           util::Table::num(compile_ms[1], 1), util::Table::num(load_ms[1], 1),
           util::Table::num(static_cast<long long>(
               probe.ok() ? probe->instruction_count() : 0)),
           util::Table::num(static_cast<long long>(
               probe.ok() ? probe->level_count() : 0)),
           util::Table::num(event_ms, 1), util::Table::num(compiled_ms, 2),
           util::Table::num(speedup, 1), util::Table::num(compiled_vps, 0),
           util::Table::num(sharded_vps, 0), ok ? "pass" : "FAIL"});
  }
  t.print();
  std::printf(
      "note: both engines run the same compiled fabric; the event path pays "
      "per-event heap/resolution cost, the compiled path one bitwise pass "
      "per wide batch over the levelized cone (dead fabric stripped).  "
      "compiled (ms) and speedup time one cold call each; the vec/s "
      "columns are warm (median of 5 samples x 10 calls).\n\n");

  // --- Wide SoA kernel vs the PR 2 scalar 64-lane kernel (10k vectors). ----
  // Both engines compile the same elaborated 16-bit datapath; the baseline
  // pins W=1 and disables the two-valued fast path and the program
  // optimization passes — the exact PR 2 configuration.  Packing is done
  // once outside the timed region so the measurement isolates the kernels.
  double wide_speedup = 0, jit_speedup = 0;
  bool wide_ok = false, jit_ok = false, jit_built = false;
  {
    const auto nl = map::make_ripple_adder(16);
    auto design = platform::compile(nl);
    if (!design.ok())
      return std::printf("%s\n", design.status().to_string().c_str()), 1;
    auto session = platform::Session::load(*design);
    if (!session.ok())
      return std::printf("%s\n", session.status().to_string().c_str()), 1;
    std::vector<sim::NetId> ins, outs;
    for (const auto& name : session->input_names())
      ins.push_back(session->net(name).value());
    for (const auto& name : session->output_names())
      outs.push_back(session->net(name).value());
    auto wide = sim::CompiledEval::compile(session->circuit(), ins, outs,
                                           &design->levels);
    auto base = sim::CompiledEval::compile(
        session->circuit(), ins, outs, &design->levels,
        {.wide_words = 1, .two_valued = false, .optimize = false});
    if (!wide.ok() || !base.ok())
      return std::printf("kernel compile failed\n"), 1;

    constexpr std::size_t kLanes = sim::Evaluator::kBatchLanes;
    const std::size_t nvec = 10'000;  // 156 full words + a partial tail
    const std::size_t words = (nvec + kLanes - 1) / kLanes;
    const std::size_t nin = ins.size(), nout = outs.size();
    util::Rng rng(1016);
    std::vector<std::uint64_t> in_v(nin * words), in_u(nin * words, 0);
    for (auto& w : in_v) w = rng.next_u64();
    std::vector<std::uint64_t> out_v(nout * words), out_u(nout * words);
    std::vector<std::uint64_t> ref_v(nout * words), ref_u(nout * words);

    // The baseline's output is the reference.  Every kernel is timed the
    // same way — the median of 5 samples of >= 2 ms each, so a ~10-µs
    // kernel is sampled over hundreds of calls — and every timed call's
    // output must equal the reference (a mismatch reads as -1).
    if (!base->eval_wide(in_v, in_u, ref_v, ref_u, nvec).ok())
      return std::printf("baseline kernel failed\n"), 1;
    auto time_ms = [&](sim::Evaluator& engine) {
      return bench::median_call_ms(
          [&] { return engine.eval_wide(in_v, in_u, out_v, out_u, nvec).ok(); },
          [&] { return out_v == ref_v && out_u == ref_u; }, 2.0);
    };
    const double base_ms = time_ms(*base);
    const double wide_ms = time_ms(*wide);
    wide_ok = base_ms > 0 && wide_ms > 0;
    wide_speedup = wide_ok ? base_ms / wide_ms : 0;
    // vectors*gates/s: normalize by the baseline's live instruction count so
    // both configurations are credited with the same logical work.
    const double gates = static_cast<double>(base->instruction_count());
    const double wide_vgps =
        wide_ms > 0 ? static_cast<double>(nvec) * gates / (wide_ms / 1e3) : 0;
    const double base_vgps =
        base_ms > 0 ? static_cast<double>(nvec) * gates / (base_ms / 1e3) : 0;
    const auto kstats = wide->kernel_stats();

    util::Table wt("wide SoA kernel vs PR 2 scalar 64-lane kernel "
                   "(16-bit datapath, 10k vectors)");
    wt.header({"kernel", "W", "instrs", "ms/10k", "vec*gates/s", "fast passes",
               "match"});
    wt.row({"scalar-64 (PR 2)", util::Table::num(1ll),
            util::Table::num(static_cast<long long>(base->instruction_count())),
            util::Table::num(base_ms, 3), util::Table::num(base_vgps, 0), "-",
            "-"});
    wt.row({"wide SoA",
            util::Table::num(static_cast<long long>(wide->preferred_words())),
            util::Table::num(static_cast<long long>(wide->instruction_count())),
            util::Table::num(wide_ms, 3), util::Table::num(wide_vgps, 0),
            util::Table::num(static_cast<long long>(kstats.fast_passes)),
            wide_ok ? "pass" : "FAIL"});
    wt.print();
    std::printf("wide kernel speedup vs 64-lane baseline: %.2fx "
                "(two-valued fast path %s)\n",
                wide_speedup,
                wide->fast_path_available() ? "available" : "unavailable");
    bench::record("wide_vs_64lane_speedup", wide_speedup);
    bench::record("wide_vec_gates_per_s", wide_vgps);
    bench::record("base64_vec_gates_per_s", base_vgps);

    // --- JIT native kernel vs the wide SoA interpreter. --------------------
    // Same program, same stimulus: JitEval emits the levelized instruction
    // stream as C, the host compiler does what the interpreter's dispatch
    // loop cannot (constant slot offsets, cross-instruction scheduling).
    // No host compiler is a skip, not a failure — that *is* the production
    // degradation path, covered by the unit tests.
    // The build goes into a fresh, empty cache directory, so it is always
    // a cold compile (verification on, as in production).
    namespace fs = std::filesystem;
    const fs::path cache_dir = fs::temp_directory_path() /
                               ("pp-bench-jit-" + std::to_string(::getpid()));
    sim::JitOptions jit_options;
    jit_options.cache_dir = cache_dir.string();
    const auto build_t0 = std::chrono::steady_clock::now();
    auto jit = sim::JitEval::build(*wide, jit_options);
    const double jit_build_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - build_t0)
                                    .count();
    std::error_code ec;
    fs::remove_all(cache_dir, ec);  // the kernel stays loaded
    if (!jit.ok()) {
      std::printf("\nJIT kernel: skipped (%s)\n",
                  jit.status().to_string().c_str());
    } else {
      bench::record("jit_cold_build_ms_adder16", jit_build_ms);
      const double jit_ms = time_ms(*jit);
      jit_ok = jit_ms > 0;
      jit_speedup = jit_ok && wide_ms > 0 ? wide_ms / jit_ms : 0;
      const double jit_vgps =
          jit_ms > 0 ? static_cast<double>(nvec) * gates / (jit_ms / 1e3) : 0;
      const auto jstats = jit->kernel_stats();

      util::Table jt("JIT native kernel vs wide SoA interpreter "
                     "(16-bit datapath, 10k vectors)");
      jt.header({"kernel", "W", "ms/10k", "vec*gates/s", "fast passes",
                 "match"});
      jt.row({"wide SoA interpreter",
              util::Table::num(static_cast<long long>(wide->preferred_words())),
              util::Table::num(wide_ms, 3), util::Table::num(wide_vgps, 0),
              "-", "-"});
      jt.row({"jit-native",
              util::Table::num(static_cast<long long>(jit->preferred_words())),
              util::Table::num(jit_ms, 3), util::Table::num(jit_vgps, 0),
              util::Table::num(static_cast<long long>(jstats.fast_passes)),
              jit_ok ? "pass" : "FAIL"});
      jt.print();
      std::printf("jit kernel speedup vs wide interpreter: %.2fx "
                  "(compiler: %s; cold build %.0f ms)\n",
                  jit_speedup, jit->build_info().compiler.c_str(),
                  jit_build_ms);
      bench::record("jit_vs_wide_speedup", jit_speedup);
      bench::record("jit_vec_gates_per_s", jit_vgps);
      jit_built = true;
    }
  }

  bench::record("min_speedup", min_speedup);
  const bool jit_gate = !jit_built || (jit_ok && jit_speedup >= 1.5);
  const bool pass = all_ok && min_speedup >= 10.0 && wide_ok &&
                    wide_speedup >= 2.0 && jit_gate;
  bench::verdict(pass,
                 "engines agree on every vector, CompiledEval is >= 10x the "
                 "event-driven path, the wide SoA kernel is >= 2x the PR 2 "
                 "scalar 64-lane kernel, and the JIT native kernel (when a "
                 "host compiler exists) is >= 1.5x the wide interpreter on "
                 "the fig10 datapath");
  return pass ? 0 : 1;
}
