// bulk_eval: adder8 resident on an in-process 1-device rt::DevicePool, one
// submitting thread running a closed loop of 65,536-vector jobs (one in
// flight, sharded over the pool workers).  Phase one serves with the
// default config (interpreter); phase two with DeviceOptions::jit on, its
// kernel cold-built with verification into this run's own cache during
// set-up, so that window starts once the kernel serves.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "rt/pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kVectors = 65'536;
constexpr int kBatches = 2;  // distinct seeded batches, alternated
constexpr const char* kName = "adder8";

struct State {
  Design design = make_design(kName);
  std::vector<Batch> batches;
  std::vector<std::vector<BitVector>> expected;
  std::optional<pp::rt::DevicePool> interp, jit;
  double netlist_to_result_s = 0;
};

void first_job(pp::rt::DevicePool& pool, const State& st, pp::platform::Engine engine,
               Outcome& out) {
  auto got = must(pool.run_sync(kName, st.batches[0], pp::rt::RunOptions{.engine = engine}),
                  "bulk_eval first job");
  ++out.attempted;
  check(got, st.expected[0], out);
}

void setup(const Config& cfg, State& st, Outcome& out) {
  st.interp.reset();
  st.jit.reset();
  st.batches.clear();
  st.expected.clear();
  pp::util::Rng rng(cfg.seed);
  for (int b = 0; b < kBatches; ++b) {
    st.batches.push_back(random_batch(rng, st.design, kVectors));
    st.expected.push_back(reference(st.design, st.batches.back()));
  }
  // Netlist to the first verified result on the default config.
  const auto t0 = Clock::now();
  const auto compiled = compile(st.design);
  const int rows = compiled.fabric.rows(), cols = compiled.fabric.cols();
  st.interp.emplace(must(pp::rt::DevicePool::create(1, rows, cols), "pool create"));
  must(st.interp->register_design(kName, compiled), "register");
  first_job(*st.interp, st, pp::platform::Engine::kAuto, out);
  st.netlist_to_result_s = seconds_since(t0);

  // The JIT config: a real cold build (verification on) into an empty cache;
  // Engine::kJit blocks until the kernel serves.
  setenv("PP_JIT_CACHE", fresh_dir(cfg, "jit-bulk").c_str(), 1);
  pp::rt::PoolOptions options;
  options.device.jit = true;
  st.jit.emplace(must(pp::rt::DevicePool::create(1, rows, cols, options), "jit pool"));
  must(st.jit->register_design(kName, compiled), "register (jit)");
  first_job(*st.jit, st, pp::platform::Engine::kJit, out);
  if (st.jit->stats().jit_compiles != 1)
    throw BenchError("bulk_eval: expected one cold JIT build in set-up");
}

/// Closed-loop window on `pool`: per-job latencies, submit to verified
/// result.
BlockWindow run_phase(pp::rt::DevicePool& pool, const State& st, double seconds,
                      std::uint64_t& request, Outcome& out) {
  BlockWindow w(seconds);
  const auto t0 = Clock::now();
  for (std::size_t j = 0; seconds_since(t0) < seconds; ++j) {
    const std::size_t b = j % kBatches;
    const auto t = Clock::now();
    {
      Span op("bulk_eval.job", ++request);
      Batch copy;
      {
        Span s("client.copy_batch", request);
        copy = st.batches[b];
      }
      std::optional<pp::rt::Job> job;
      {
        Span s("rt.submit", request);
        job = must(pool.submit(kName, std::move(copy)), "submit");
      }
      pp::Result<std::vector<BitVector>> got = pp::Status::internal("not run");
      {
        Span s("rt.wait", request);
        got = job->wait();
      }
      ++out.attempted;
      if (!got.ok()) {
        ++out.errors;
        std::fprintf(stderr, "bulk_eval: %s\n", got.status().to_string().c_str());
      } else {
        Span s("verify", request);
        check(*got, st.expected[b], out);
      }
      Span s("client.release_results", request);
      got = pp::Status::internal("released");
    }
    w.add(seconds_since(t0), seconds_since(t) * 1e3);
  }
  return w;
}

}  // namespace

void run_bulk_eval(const Config& cfg, Outcome& out) {
  State st;
  std::vector<double> n2r;
  const double setup_s = timed_setups(cfg, 3, [&] {
    setup(cfg, st, out);
    n2r.push_back(st.netlist_to_result_s);
  });
  std::uint64_t request = 0;

  if (!cfg.trace) {
    const BlockWindow interp = run_phase(*st.interp, st, cfg.seconds / 2, request, out);
    const BlockWindow jit = run_phase(*st.jit, st, cfg.seconds / 2, request, out);
    if (st.jit->stats().jit_passes == 0)
      throw BenchError("bulk_eval: the JIT phase never ran on the kernel");
    print_timing("bulk_eval job (interpreter)", interp.all());
    print_timing("bulk_eval job (jit)", jit.all());
    // One job in flight: throughput is the inverse of the median job time.
    const double job_ms = median(interp.all());
    out.add("setup_s", setup_s, "s");
    out.add("netlist_to_result_s", median(n2r), "s");
    out.add("vectors_per_s", kVectors * 1e3 / job_ms, "1/s");
    out.add("jit_vectors_per_s", kVectors * 1e3 / median(jit.all()), "1/s");
    out.add("jobs_per_s", 1e3 / job_ms, "1/s");
    out.add("job_p50_ms", job_ms, "ms");
    out.add("job_p99_ms", interp.p99_ms(), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced run: the budget of the interpreter phase, per job.
  trace_budget("bulk_eval", "bulk_eval.job", [&] {
    return mean(run_phase(*st.interp, st, cfg.seconds / 2, request, out).all());
  }, out);
}

}  // namespace perfbench
