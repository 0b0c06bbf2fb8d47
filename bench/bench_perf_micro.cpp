// PERF: google-benchmark micro-benchmarks of the simulation infrastructure
// itself (event simulator, elaboration, minimiser, router, bitstream) plus
// the platform pipeline (compile, batch evaluation).  These are engineering
// numbers for this reproduction, not paper claims.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/bitstream.h"
#include "core/fabric.h"
#include "map/macros.h"
#include "map/netlist.h"
#include "map/router.h"
#include "map/truth_table.h"
#include "platform/compiler.h"
#include "platform/session.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

using namespace pp;

void BM_EventSimAdder(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Fabric f(2, map::macros::ripple_adder_cols(n));
  const auto ports = map::macros::ripple_adder(f, 0, 0, n);
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  util::Rng rng(1);
  for (auto _ : state) {
    const std::uint64_t a = rng.next_bits(n), b = rng.next_bits(n);
    for (int i = 0; i < n; ++i) {
      s.set_input(ef.in_line(ports.bits[i].a.r, ports.bits[i].a.c,
                             ports.bits[i].a.line),
                  sim::from_bool((a >> i) & 1));
      s.set_input(ef.in_line(ports.bits[i].na.r, ports.bits[i].na.c,
                             ports.bits[i].na.line),
                  sim::from_bool(!((a >> i) & 1)));
      s.set_input(ef.in_line(ports.bits[i].b.r, ports.bits[i].b.c,
                             ports.bits[i].b.line),
                  sim::from_bool((b >> i) & 1));
      s.set_input(ef.in_line(ports.bits[i].nb.r, ports.bits[i].nb.c,
                             ports.bits[i].nb.line),
                  sim::from_bool(!((b >> i) & 1)));
    }
    s.set_input(ef.in_line(0, 0, 2), sim::Logic::k0);
    s.set_input(ef.in_line(0, 0, 3), sim::Logic::k1);
    s.settle();
    benchmark::DoNotOptimize(s.value(ef.in_line(
        ports.bits[n - 1].cout.r, ports.bits[n - 1].cout.c,
        ports.bits[n - 1].cout.line)));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(s.stats().events_processed),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventSimAdder)->Arg(4)->Arg(8)->Arg(16);

void BM_Elaborate(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  core::Fabric f(size, size);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      // Driver row chosen so abutting west/north neighbours never collide
      // on the same input line.
      const int row = (r + 2 * c) % core::kBlockOutputs;
      f.block(r, c).xpoint[row][0] = core::BiasLevel::kActive;
      f.block(r, c).driver[row] = core::DriverCfg::kInvert;
    }
  for (auto _ : state) {
    auto ef = f.elaborate();
    benchmark::DoNotOptimize(ef.circuit().gate_count());
  }
}
BENCHMARK(BM_Elaborate)->Arg(4)->Arg(8)->Arg(16);

void BM_QuineMcCluskey6(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    map::TruthTable tt(6);
    for (int i = 0; i < 64; ++i)
      tt.set(static_cast<std::uint8_t>(i), rng.next_bool());
    benchmark::DoNotOptimize(map::minimize(tt));
  }
}
BENCHMARK(BM_QuineMcCluskey6);

void BM_RouterDiagonal(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::Fabric f(size, size);
    map::Router router(f);
    benchmark::DoNotOptimize(
        router.try_route({0, 0, 0}, {size - 1, size - 1, 5}));
  }
}
BENCHMARK(BM_RouterDiagonal)->Arg(4)->Arg(8)->Arg(16);

void BM_BitstreamRoundTrip(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  core::Fabric f(size, size);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c)
      f.block(r, c).xpoint[r % 6][c % 6] = core::BiasLevel::kActive;
  for (auto _ : state) {
    const auto bytes = core::encode_fabric(f);
    core::Fabric g(size, size);
    if (!core::try_load_fabric(g, bytes).ok())
      state.SkipWithError("bitstream round trip failed");
    benchmark::DoNotOptimize(g.active_cells());
  }
  state.SetBytesProcessed(state.iterations() *
                          (8 + size * size * core::kBlockBytes + 4));
}
BENCHMARK(BM_BitstreamRoundTrip)->Arg(8)->Arg(16);

void BM_PlatformCompile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto nl = map::make_ripple_adder(n);
  for (auto _ : state) {
    auto design = platform::compile(nl);
    if (!design.ok()) {
      state.SkipWithError(design.status().to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(design->bitstream.size());
  }
}
BENCHMARK(BM_PlatformCompile)->Arg(2)->Arg(4);

void BM_PlatformRunVectors(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto nl = map::make_ripple_adder(n);
  auto design = platform::compile(nl);
  if (!design.ok()) {
    state.SkipWithError(design.status().to_string().c_str());
    return;
  }
  auto session = platform::Session::load(*design);
  if (!session.ok()) {
    state.SkipWithError(session.status().to_string().c_str());
    return;
  }
  const int bits = 2 * n + 1;
  std::vector<platform::InputVector> vectors;
  for (int v = 0; v < (1 << bits); ++v) {
    platform::InputVector in(bits);
    for (int i = 0; i < bits; ++i) in[i] = (v >> i) & 1;
    vectors.push_back(std::move(in));
  }
  for (auto _ : state) {
    auto out = session->run_vectors(vectors);
    if (!out.ok()) {
      state.SkipWithError(out.status().to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(out->size());
  }
  state.counters["vectors/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * vectors.size(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PlatformRunVectors)->Arg(2)->Arg(3);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so the uniform `--json <path>` contract works
// here too: bench::init consumes it, then the flag is stripped before
// google-benchmark parses the rest of the command line.
int main(int argc, char** argv) {
  pp::bench::init(argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::string_view(argv[i]) == "--json" && i + 1 < argc) {
      ++i;  // skip the path operand too
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  pp::bench::record("completed", 1);
  benchmark::Shutdown();
  return 0;
}
