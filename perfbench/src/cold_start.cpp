// cold_start: "here is a netlist, give me results".  One pass takes each of
// parity8, mux4, adder4 and adder8 through compile → a fresh serve::Server
// over a fresh 1-device pool sized to adder8 → Client::register_design →
// one 512-vector batch checked against the netlist reference.  Passes
// alternate the default config and DeviceOptions::jit on (the kernel warms
// in the background, so the first job never waits for it).
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>

#include "rt/pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kDesigns[] = {"parity8", "mux4", "adder4", "adder8"};
constexpr std::size_t kVectors = 512;
constexpr int kVariants = 2;  // distinct seeded batches per design

struct Inputs {
  std::vector<Design> designs;
  std::vector<std::vector<Batch>> batches;                  // [design][variant]
  std::vector<std::vector<std::vector<BitVector>>> expected;
  int rows = 0, cols = 0;  // pool dimensions: the compiled adder8's array
};

Inputs make_inputs(const Config& cfg) {
  Inputs in;
  pp::util::Rng rng(cfg.seed);
  for (const char* name : kDesigns) {
    in.designs.push_back(make_design(name));
    auto& batches = in.batches.emplace_back();
    auto& expected = in.expected.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      batches.push_back(random_batch(rng, in.designs.back(), kVectors));
      expected.push_back(reference(in.designs.back(), batches.back()));
    }
  }
  const auto adder8 = compile(in.designs.back());
  in.rows = adder8.fabric.rows();
  in.cols = adder8.fabric.cols();
  return in;
}

/// Milliseconds of one design from netlist to verified result.
struct DesignMs {
  double compile = 0;  // client-side platform::compile
  double total = 0;
};

/// One design from netlist to verified result through a fresh server.
/// Tear-down (which joins any JIT build still in flight) happens after the
/// clock stops.
DesignMs serve_once(const Inputs& in, std::size_t d, int variant, bool jit,
                    std::uint64_t request, Outcome& out) {
  DesignMs ms;
  std::optional<pp::serve::Server> server;
  std::optional<pp::serve::Client> client;
  const auto t0 = Clock::now();
  {
    Span op("cold_start.design", request);
    const Design& design = in.designs[d];
    pp::platform::CompiledDesign compiled;
    {
      Span s("platform.compile", request);
      ms.compile = time_ms([&] { compiled = compile(design); });
    }
    {
      Span s("serve.server_start", request);
      pp::rt::PoolOptions options;
      options.device.jit = jit;
      server.emplace(must(pp::serve::Server::create(must(
                              pp::rt::DevicePool::create(1, in.rows, in.cols, options),
                              "pool create")),
                          "server create"));
    }
    {
      Span s("serve.connect", request);
      client.emplace(must(pp::serve::Client::connect("127.0.0.1", server->port(), "t0"),
                          "connect"));
    }
    {
      Span s("serve.register_design", request);
      must(client->register_design(design.name, compiled), "register " + design.name);
    }
    pp::Result<std::vector<BitVector>> got = pp::Status::internal("not run");
    {
      Span s("serve.first_job", request);
      got = client->run(design.name, in.batches[d][variant]);
    }
    ++out.attempted;
    if (!got.ok()) {
      ++out.errors;
      std::fprintf(stderr, "cold_start %s: %s\n", design.name.c_str(),
                   got.status().to_string().c_str());
    } else {
      Span s("verify", request);
      check(*got, in.expected[d][variant], out);
    }
  }
  ms.total = seconds_since(t0) * 1e3;
  client.reset();
  server.reset();
  return ms;
}

using Pass = std::vector<DesignMs>;  // by design

/// The passes of a window, by config.
struct Window {
  std::vector<Pass> off, on;
};

/// Pass times in milliseconds.
std::vector<double> pass_ms(const std::vector<Pass>& passes) {
  std::vector<double> ms;
  for (const Pass& p : passes)
    ms.push_back(std::accumulate(p.begin(), p.end(), 0.0,
                                 [](double sum, const DesignMs& d) { return sum + d.total; }));
  return ms;
}

/// Seconds of a typical pass of `config`, one of `w`'s configs: summed over
/// the designs, the median compile time over the passes of both configs
/// (the client-side compile does not depend on the device config) plus the
/// median of the rest over `config`'s passes.  Per-design medians keep a
/// burst of host noise in one design of one pass from moving the result.
double typical_pass_s(const Window& w, const std::vector<Pass>& config) {
  double ms = 0;
  for (std::size_t d = 0; d < config.front().size(); ++d) {
    std::vector<double> compile, rest;
    for (const auto* passes : {&w.off, &w.on})
      for (const Pass& p : *passes) compile.push_back(p[d].compile);
    for (const Pass& p : config) rest.push_back(p[d].total - p[d].compile);
    ms += median(compile) + median(rest);
  }
  return ms / 1e3;
}

/// Passes until `seconds` have passed and each config run has at least
/// `min_passes` passes (three, so a median can drop the first JIT pass,
/// whose kernels build cold).  With `with_jit`, passes alternate the
/// default config and JIT on; otherwise all use the default config.
Window run_window(const Config& cfg, const Inputs& in, double seconds, bool with_jit,
                  std::uint64_t& request, Outcome& out) {
  Window w;
  const std::size_t min_passes = cfg.quick ? 1 : 3;
  const auto t0 = Clock::now();
  for (int k = 0; seconds_since(t0) < seconds || w.off.size() < min_passes ||
                  (with_jit && w.on.size() < min_passes);
       ++k) {
    const bool jit = with_jit && k % 2 == 1;
    const int variant = (k / 2) % kVariants;
    Pass& pass = (jit ? w.on : w.off).emplace_back();
    std::string line;
    for (std::size_t d = 0; d < in.designs.size(); ++d) {
      pass.push_back(serve_once(in, d, variant, jit, ++request, out));
      line += " " + std::to_string(static_cast<int>(pass.back().total));
    }
    std::printf("pass %d (%s), ms per design:%s\n", k, jit ? "jit" : "default", line.c_str());
  }
  return w;
}

}  // namespace

void run_cold_start(const Config& cfg, Outcome& out) {
  Inputs in;
  std::uint64_t request = 0;
  const double setup_s = timed_setups(cfg, 3, [&] {
    in = make_inputs(cfg);
    Outcome warm;  // warm-up: one small design end to end, not counted
    (void)serve_once(in, 0, 0, false, 0, warm);
    if (!warm.correct()) throw BenchError("cold_start warm-up failed");
  });
  // JIT-on passes build into this run's own cache (cold on the first one).
  setenv("PP_JIT_CACHE", fresh_dir(cfg, "jit-cold-start").c_str(), 1);

  if (!cfg.trace) {
    // The unit of work ("job") is one pass: four netlists to verified results.
    const Window w = run_window(cfg, in, cfg.seconds, true, request, out);
    const std::vector<double> ms = pass_ms(w.off);
    print_timing("cold_start pass (default config)", ms);
    const double pass_s = typical_pass_s(w, w.off);
    const double vectors = in.designs.size() * kVectors;
    out.add("setup_s", setup_s, "s");
    out.add("netlist_to_result_s", pass_s, "s");
    out.add("vectors_per_s", vectors / pass_s, "1/s");
    out.add("jit_vectors_per_s", vectors / typical_pass_s(w, w.on), "1/s");
    out.add("jobs_per_s", 1 / pass_s, "1/s");
    out.add("job_p50_ms", median(ms), "ms");
    out.add("job_p99_ms", percentile(ms, 0.99), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced run: the budget of default-config passes, per design.
  trace_budget("cold_start", "cold_start.design", [&] {
    const Window w = run_window(cfg, in, cfg.seconds / 2, false, request, out);
    return mean(pass_ms(w.off)) / in.designs.size();
  }, out);
}

}  // namespace perfbench
