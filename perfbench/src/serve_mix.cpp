// serve_mix: one PPSV server over a 2-device pool at adder4 dimensions with
// adder4, parity8, mux4 and counter4 (8-cycle clocked streams) registered
// and warmed.  Three tenant connections run a closed loop of rounds of
// 64-vector batches (kServeMixVectors), one job per tenant per round, each
// tenant rotating through the designs one design apart from the others so
// the devices keep reconfiguring; tenants 0 and 2 submit at interactive
// priority.  One thread drives all three connections (pipelined submits),
// so the host's cores go to the server rather than to client threads.
// Two configs take turns in slices: the default config, and a second server
// with DeviceOptions::jit on (its kernels built in set-up).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "rt/pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kDesigns[] = {"adder4", "parity8", "mux4", "counter4"};
constexpr std::size_t kVectors = kServeMixVectors;
constexpr std::size_t kBatches = 8;  // distinct seeded batches per design
constexpr int kClients = 3;
constexpr int kDevices = 2;
// Half-second blocks of ~5k jobs, four to a slice: a 20 s run gives each
// config five slices and twenty blocks.
constexpr double kBlockS = 0.5;
constexpr double kSliceS = 2.0;

struct Mix {
  std::vector<Design> designs;
  std::vector<pp::platform::CompiledDesign> compiled;
  std::vector<std::vector<Batch>> batches;  // [design][batch]
  std::vector<std::vector<std::vector<BitVector>>> expected;
  std::vector<std::size_t> offsets;  // per client rotation offset
  int rows = 0, cols = 0;
};

pp::serve::ClientSubmitOptions submit_options(const Design& d, int client) {
  pp::serve::ClientSubmitOptions o;
  o.priority = client % 2 == 0 ? pp::rt::Priority::kInteractive : pp::rt::Priority::kBatch;
  o.cycles = static_cast<std::uint32_t>(d.cycles);
  return o;
}

pp::serve::Server make_server(const Mix& mix, bool jit) {
  pp::rt::PoolOptions options;
  options.device.jit = jit;
  return must(pp::serve::Server::create(
                  must(pp::rt::DevicePool::create(kDevices, mix.rows, mix.cols, options),
                       "pool create")),
              "server create");
}

/// Connects tenant `client` and registers every design.
pp::serve::Client connect(const Mix& mix, pp::serve::Server& server, int client) {
  auto c = must(pp::serve::Client::connect("127.0.0.1", server.port(),
                                           "t" + std::to_string(client)),
                "connect");
  for (std::size_t d = 0; d < mix.designs.size(); ++d)
    must(c.register_design(mix.designs[d].name, mix.compiled[d]),
         "register " + mix.designs[d].name);
  return c;
}

/// One verified job per design from `client` (engine kJit blocks until
/// the kernel serves).
void warm(const Mix& mix, pp::serve::Client& client, int id, pp::platform::Engine engine,
          Outcome& out) {
  for (std::size_t d = 0; d < mix.designs.size(); ++d) {
    auto o = submit_options(mix.designs[d], id);
    o.engine = engine;
    auto got = must(client.run(mix.designs[d].name, mix.batches[d][0], o), "warm-up job");
    ++out.attempted;
    check(got, mix.expected[d][0], out);
  }
}

struct Serving {
  Mix mix;
  std::optional<pp::serve::Server> plain, jit;
  std::vector<pp::serve::Client> clients;  // tenants of `plain`
  double netlist_to_result_s = 0;
};

void setup(const Config& cfg, Serving& s, Outcome& out) {
  s.clients.clear();
  s.plain.reset();
  s.jit.reset();
  Mix& mix = s.mix;
  mix = {};
  pp::util::Rng rng(cfg.seed);
  for (const char* name : kDesigns) {
    mix.designs.push_back(make_design(name));
    auto& batches = mix.batches.emplace_back();
    auto& expected = mix.expected.emplace_back();
    for (std::size_t b = 0; b < kBatches; ++b) {
      batches.push_back(random_batch(rng, mix.designs.back(), kVectors));
      expected.push_back(reference(mix.designs.back(), batches.back()));
    }
  }
  // Tenants start one design apart, so every round asks for three distinct
  // designs of the four and the two devices keep swapping personalities.
  // The seed picks where the rotation starts.
  const std::size_t first = rng.next_below(mix.designs.size());
  for (std::size_t c = 0; c < kClients; ++c)
    mix.offsets.push_back((first + c) % mix.designs.size());

  // Netlist to the first verified result of every design over the wire.
  const auto t0 = Clock::now();
  for (const Design& d : mix.designs) mix.compiled.push_back(compile(d));
  mix.rows = mix.compiled[0].fabric.rows();  // adder4 sizes the devices
  mix.cols = mix.compiled[0].fabric.cols();
  s.plain.emplace(make_server(mix, false));
  s.clients.push_back(connect(mix, *s.plain, 0));
  warm(mix, s.clients[0], 0, pp::platform::Engine::kAuto, out);
  s.netlist_to_result_s = seconds_since(t0);
  for (int c = 1; c < kClients; ++c) {
    s.clients.push_back(connect(mix, *s.plain, c));
    warm(mix, s.clients[c], c, pp::platform::Engine::kAuto, out);
  }

  // JIT config: kernels cold-built into this run's cache.  Its tenants
  // connect when its slices start, so at most kClients connections are
  // open at a time.
  setenv("PP_JIT_CACHE", fresh_dir(cfg, "jit-serve").c_str(), 1);
  s.jit.emplace(make_server(mix, true));
  auto warmer = connect(mix, *s.jit, 0);
  warm(mix, warmer, 0, pp::platform::Engine::kJit, out);
}

/// A tenant's job in flight: its design and batch, and the spans that time it.
struct InFlight {
  std::uint64_t id = 0;  // Client request id; 0: none in flight
  std::uint64_t request = 0;  // span request id
  std::size_t design = 0, batch = 0;
  Clock::time_point submitted;
  std::unique_ptr<Span> span;
};

/// The closed loop of one phase, in rounds: a single thread submits one job
/// per tenant, then collects the three replies.  Rounds, because a tenant
/// that resubmits as soon as its own reply arrives has two steady states,
/// picked by timing: jobs arriving together and batched behind one
/// activation, or staggered with an activation nearly every job at ~60 % of
/// the throughput.  A round's jobs always arrive together.
BlockWindow run_phase(const Mix& mix, std::vector<pp::serve::Client>& clients,
                      double seconds, std::uint64_t& request, Outcome& out) {
  BlockWindow window(seconds, kBlockS);
  std::vector<InFlight> jobs(clients.size());
  std::vector<std::size_t> submitted(clients.size(), 0);
  const auto t0 = Clock::now();
  const auto submit = [&](std::size_t c) {
    const std::size_t j = submitted[c]++;
    InFlight& job = jobs[c];
    job.design = (mix.offsets[c] + j) % mix.designs.size();
    job.batch = (j / mix.designs.size() + c) % kBatches;
    const Design& design = mix.designs[job.design];
    job.submitted = Clock::now();
    job.request = ++request;
    job.span = std::make_unique<Span>("serve_mix.job", job.request, nullptr);
    pp::Result<std::uint64_t> id = pp::Status::internal("not sent");
    {
      Span s("serve.client_submit", job.request, job.span.get());
      id = clients[c].submit(design.name, mix.batches[job.design][job.batch],
                             submit_options(design, static_cast<int>(c)));
    }
    if (!id.ok()) {
      ++out.attempted;
      ++out.errors;
      job.span.reset();
      return;
    }
    job.id = *id;
  };
  const auto collect = [&](std::size_t c) {
    InFlight& job = jobs[c];
    pp::Result<std::vector<BitVector>> got = pp::Status::internal("not run");
    {
      Span s("serve.client_wait", job.request, job.span.get());
      got = clients[c].wait(job.id);
    }
    job.id = 0;
    ++out.attempted;
    if (!got.ok()) {
      ++(got.status().code() == pp::StatusCode::kUnavailable ? out.refused : out.errors);
    } else {
      {
        Span s("verify", job.request, job.span.get());
        check(*got, mix.expected[job.design][job.batch], out);
      }
      window.add(seconds_since(t0), seconds_since(job.submitted) * 1e3);
    }
    job.span.reset();
  };
  while (seconds_since(t0) < seconds) {
    for (std::size_t c = 0; c < clients.size(); ++c) submit(c);
    for (std::size_t c = 0; c < clients.size(); ++c)
      if (jobs[c].id != 0) collect(c);
  }
  return window;
}

/// Prints how a phase used the pool: personality swaps, batching and
/// affinity per job, and the spread of its per-block job rates.
void print_phase(const char* what, const pp::rt::PoolStats& before,
                 const pp::rt::PoolStats& after, const BlockWindow& window) {
  const auto sum = [](const pp::rt::PoolStats& p, std::uint64_t pp::rt::DeviceStats::*f) {
    std::uint64_t n = 0;
    for (const auto& dev : p.device) n += dev.*f;
    return static_cast<double>(n);
  };
  const double jobs = std::max(1.0, sum(after, &pp::rt::DeviceStats::jobs_completed) -
                                        sum(before, &pp::rt::DeviceStats::jobs_completed));
  const auto rates = window.per_block(
      [&](const std::vector<double>& b) { return b.size() / window.block_s; });
  std::printf("%s: activations/job %.3f, batched %.3f, affinity-active %.3f; "
              "block jobs/s min %.0f q25 %.0f q50 %.0f q75 %.0f max %.0f\n",
              what,
              (sum(after, &pp::rt::DeviceStats::activations) -
               sum(before, &pp::rt::DeviceStats::activations)) / jobs,
              (sum(after, &pp::rt::DeviceStats::batched_jobs) -
               sum(before, &pp::rt::DeviceStats::batched_jobs)) / jobs,
              static_cast<double>(after.affinity_active - before.affinity_active) / jobs,
              percentile(rates, 0), percentile(rates, 0.25), percentile(rates, 0.5),
              percentile(rates, 0.75), percentile(rates, 1));
}

}  // namespace

void run_serve_mix(const Config& cfg, Outcome& out) {
  Serving s;
  std::vector<double> n2r;
  // Set-up is cheap here, so five repetitions steady netlist_to_result_s.
  const double setup_s = timed_setups(cfg, 5, [&] {
    setup(cfg, s, out);
    n2r.push_back(s.netlist_to_result_s);
  });
  std::uint64_t request = 0;

  if (!cfg.trace) {
    // The two configs take turns in slices of about kSliceS, so each one's
    // blocks are spread over the whole run and see the same host noise.
    // The tenants reconnect at every switch (the server deduplicates the
    // repeated registrations), so no more than kClients connections are
    // ever open.
    s.clients.clear();
    const int slices = std::max(1, static_cast<int>(cfg.seconds / 2 / kSliceS + 0.5));
    const double slice_s = cfg.seconds / 2 / slices;
    std::optional<BlockWindow> plain, jit;
    const auto slice = [&](pp::serve::Server& server, std::optional<BlockWindow>& into) {
      std::vector<pp::serve::Client> clients;
      for (int c = 0; c < kClients; ++c) clients.push_back(connect(s.mix, server, c));
      BlockWindow w = run_phase(s.mix, clients, slice_s, request, out);
      if (into) {
        into->append(w);
      } else {
        into = std::move(w);
      }
    };
    const auto plain_before = s.plain->pool().stats();
    const auto jit_before = s.jit->pool().stats();
    for (int i = 0; i < slices; ++i) {
      slice(*s.plain, plain);
      slice(*s.jit, jit);
    }
    const auto plain_after = s.plain->pool().stats();
    const auto jit_after = s.jit->pool().stats();
    if (jit_after.jit_passes == 0)
      throw BenchError("serve_mix: the JIT phase never ran on a kernel");
    print_timing("serve_mix job (default config)", plain->all());
    print_phase("  default config", plain_before, plain_after, *plain);
    print_timing("serve_mix job (jit)", jit->all());
    print_phase("  jit", jit_before, jit_after, *jit);
    const double jobs_per_s = plain->jobs_per_s();
    out.add("setup_s", setup_s, "s");
    out.add("netlist_to_result_s", median(n2r), "s");
    out.add("vectors_per_s", jobs_per_s * kVectors, "1/s");
    out.add("jit_vectors_per_s", jit->jobs_per_s() * kVectors, "1/s");
    out.add("jobs_per_s", jobs_per_s, "1/s");
    out.add("job_p50_ms", plain->p50_ms(), "ms");
    out.add("job_p99_ms", plain->p99_ms(), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced run: the budget of the default-config phase, per job.
  trace_budget("serve_mix", "serve_mix.job", [&] {
    return mean(run_phase(s.mix, s.clients, cfg.seconds / 2, request, out).all());
  }, out);
}

}  // namespace perfbench
