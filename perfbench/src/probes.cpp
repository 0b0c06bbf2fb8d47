// Per-layer probes: each metric times one public call on the same designs
// and seeded inputs as its workload (median of cfg.probe_reps() repetitions
// unless noted), so a layer's cost can be read independently of the
// end-to-end numbers it feeds.  Every timed call is also a trace span.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>

#include "core/bitstream.h"
#include "platform/session.h"
#include "rt/device.h"
#include "rt/pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/jit.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pp::platform::CompiledDesign;

/// Median milliseconds of `reps` calls of `fn`, each recorded as a span.
double probe_ms(const char* span, int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Span s(span);
    ms.push_back(time_ms(fn));
  }
  return median(ms);
}

std::vector<pp::sim::NetId> nets(const pp::core::ElaboratedFabric& elab,
                                 const std::vector<pp::platform::PortBinding>& ports) {
  std::vector<pp::sim::NetId> out;
  for (const auto& p : ports) out.push_back(elab.in_line(p.at.r, p.at.c, p.at.line));
  return out;
}

/// The interpreter build CompiledDesign → CompiledEval, as a resident
/// design does it (boundary registers become external register loops).
pp::sim::CompiledEval build_interp(const CompiledDesign& cd,
                                   const pp::core::ElaboratedFabric& elab,
                                   const pp::sim::LevelMap& levels) {
  const auto& circuit = elab.circuit();
  if (cd.state.empty())
    return must(pp::sim::CompiledEval::compile(circuit, nets(elab, cd.inputs),
                                               nets(elab, cd.outputs), &levels),
                "interpreter build");
  std::vector<pp::sim::ExternalReg> regs;
  for (const auto& sb : cd.state)
    regs.push_back({elab.in_line(sb.q_pad.r, sb.q_pad.c, sb.q_pad.line),
                    elab.in_line(sb.d_at.r, sb.d_at.c, sb.d_at.line), pp::sim::Logic::k0});
  return must(pp::sim::CompiledEval::compile_sequential(circuit, nets(elab, cd.inputs),
                                                        nets(elab, cd.outputs),
                                                        std::move(regs), &levels),
              "sequential interpreter build");
}

// ---- cold_start layers ------------------------------------------------------

void cold_start_probes(const Config& cfg, Outcome& out) {
  const int reps = cfg.probe_reps();
  const CompiledDesign adder8 = compile(make_design("adder8"));
  const int rows = adder8.fabric.rows(), cols = adder8.fabric.cols();
  pp::util::Rng rng(cfg.seed);
  for (const char* name : {"parity8", "mux4", "adder4", "adder8", "counter4"}) {
    const Design d = make_design(name);
    const std::string sfx = std::string(".") + name;
    CompiledDesign cd;
    const double compile_ms = probe_ms("platform.compile", reps, [&] { cd = compile(d); });
    std::optional<pp::core::ElaboratedFabric> elab;
    const double elab_ms = probe_ms("core.elaborate", reps, [&] {
      elab.emplace(must(cd.fabric.try_elaborate(cd.delays), "elaborate"));
    });
    const double levelize_ms = probe_ms("sim.levelize", reps, [&] {
      cd.levels = must(pp::sim::levelize(elab->circuit()), "levelize");
    });
    std::optional<pp::sim::CompiledEval> interp;
    const double interp_ms = probe_ms("sim.interp_build", reps, [&] {
      interp.emplace(build_interp(cd, *elab, cd.levels));
    });
    std::vector<std::uint8_t> bytes;
    const double encode_ms =
        probe_ms("core.encode", reps, [&] { bytes = pp::core::encode_fabric(cd.fabric); });
    const double decode_ms = probe_ms("core.decode", reps, [&] {
      auto fabric = must(pp::core::Fabric::create(cd.fabric.rows(), cd.fabric.cols()), "fabric");
      must(pp::core::try_load_fabric(fabric, bytes), "decode");
    });
    out.add("platform.compile_ms" + sfx, compile_ms, "ms");
    out.add("core.fabric_blocks" + sfx,
            static_cast<double>(cd.fabric.rows()) * cd.fabric.cols(), "count");
    out.add("core.bitstream_bytes" + sfx, static_cast<double>(cd.bitstream.size()), "bytes");
    out.add("sim.instructions" + sfx, static_cast<double>(interp->instruction_count()),
            "count");
    if (d.cycles != 0) continue;  // counter4 only rides serve_mix

    out.add("core.elaborate_ms" + sfx, elab_ms, "ms");
    out.add("core.encode_ms" + sfx, encode_ms, "ms");
    out.add("core.decode_ms" + sfx, decode_ms, "ms");
    out.add("sim.levelize_ms" + sfx, levelize_ms, "ms");
    out.add("sim.interp_build_ms" + sfx, interp_ms, "ms");
    out.add("platform.place_route_ms" + sfx,
            compile_ms - elab_ms - encode_ms - levelize_ms, "ms");
    out.add("platform.pad_ms" + sfx, probe_ms("platform.pad_to", reps, [&] {
              (void)must(pp::platform::pad_to(cd, rows, cols), "pad_to");
            }),
            "ms");

    // Registration and the first job on a fresh design, each on a fresh pool.
    const Batch batch = random_batch(rng, d, 512);
    const auto want = reference(d, batch);
    std::vector<double> reg_ms, first_ms, rtt_ms;
    for (int r = 0; r < reps; ++r) {
      auto pool = must(pp::rt::DevicePool::create(1, rows, cols), "pool");
      {
        Span s("rt.register_design");
        reg_ms.push_back(time_ms([&] { must(pool.register_design(name, cd), "register"); }));
      }
      {
        Span s("rt.first_job");
        first_ms.push_back(time_ms([&] {
          ++out.attempted;
          check(must(pool.run_sync(name, batch), "first job"), want, out);
        }));
      }
      auto server = must(pp::serve::Server::create(
                             must(pp::rt::DevicePool::create(1, rows, cols), "pool")),
                         "server");
      auto client = must(pp::serve::Client::connect("127.0.0.1", server.port(), "t0"), "connect");
      Span s("serve.register_design");
      rtt_ms.push_back(
          time_ms([&] { must(client.register_design(name, cd), "register over PPSV"); }));
    }
    out.add("rt.register_ms" + sfx, median(reg_ms), "ms");
    out.add("serve.register_rtt_ms" + sfx, median(rtt_ms), "ms");
    out.add("rt.first_job_ms" + sfx, median(first_ms), "ms");
  }
}

// ---- bulk_eval layers -------------------------------------------------------

/// Packs `batch` into the engines' SoA planes (value planes; unknown zero).
std::vector<std::uint64_t> pack_planes(const Batch& batch, std::size_t width) {
  const std::size_t words = (batch.size() + 63) / 64;
  std::vector<std::uint64_t> planes(width * words, 0);
  for (std::size_t v = 0; v < batch.size(); ++v)
    for (std::size_t i = 0; i < width; ++i)
      if (batch[v][i]) planes[i * words + v / 64] |= std::uint64_t{1} << (v % 64);
  return planes;
}

/// Single-thread ns per vector of eval_wide over pre-packed planes.
double kernel_ns_per_vec(const char* span, int reps, pp::sim::Evaluator& engine,
                         const Batch& batch) {
  const std::size_t words = (batch.size() + 63) / 64;
  const auto in = pack_planes(batch, engine.input_count());
  const std::vector<std::uint64_t> unknown(in.size(), 0);
  std::vector<std::uint64_t> ov(engine.output_count() * words), ou(ov.size());
  must(engine.eval_wide(in, unknown, ov, ou, batch.size()), "eval_wide warm-up");
  return probe_ms(span, std::max(reps, 5), [&] {
           must(engine.eval_wide(in, unknown, ov, ou, batch.size()), "eval_wide");
         }) *
         1e6 / batch.size();
}

pp::rt::PoolStats window_stats(pp::rt::DevicePool& pool, const Batch& batch,
                               const std::vector<BitVector>& want, int jobs, Outcome& out) {
  const auto before = pool.stats();
  for (int j = 0; j < jobs; ++j) {
    ++out.attempted;
    check(must(pool.run_sync("adder8", batch), "window job"), want, out);
  }
  auto after = pool.stats();
  after.fast_passes -= before.fast_passes;
  after.slow_passes -= before.slow_passes;
  after.jit_passes -= before.jit_passes;
  after.jit_fallbacks -= before.jit_fallbacks;
  return after;
}

void bulk_eval_probes(const Config& cfg, Outcome& out) {
  const int reps = cfg.probe_reps();
  const Design d = make_design("adder8");
  pp::util::Rng rng(cfg.seed);
  const Batch batch = random_batch(rng, d, 65'536);
  const auto want = reference(d, batch);
  CompiledDesign cd = compile(d);
  auto elab = must(cd.fabric.try_elaborate(cd.delays), "elaborate");
  auto interp = build_interp(cd, elab, cd.levels);

  const double interp_ns = kernel_ns_per_vec("sim.interp_kernel", reps, interp, batch);
  pp::sim::JitOptions jit_options;
  jit_options.cache_dir = fresh_dir(cfg, "jit-probe");
  std::optional<pp::sim::JitEval> jit;
  {
    Span s("sim.jit_cold_build");
    out.add("sim.jit_cold_build_ms", time_ms([&] {
              jit.emplace(must(pp::sim::JitEval::build(interp, jit_options), "jit build"));
            }),
            "ms");
  }
  out.add("sim.jit_cache_load_ms", probe_ms("sim.jit_cache_load", reps, [&] {
            jit.emplace(must(pp::sim::JitEval::build(interp, jit_options), "jit load"));
          }),
          "ms");
  if (!jit->build_info().cache_hit) throw BenchError("jit probe: warm build missed the cache");
  out.add("sim.interp_kernel_ns_per_vec", interp_ns, "ns");
  out.add("sim.jit_kernel_ns_per_vec", kernel_ns_per_vec("sim.jit_kernel", reps, *jit, batch),
          "ns");

  auto session = must(pp::platform::Session::load(cd), "session");
  ++out.attempted;
  check(must(session.run_vectors(batch, {.max_threads = 1}), "run_vectors"), want, out);
  const double run_1t_ms = probe_ms("platform.run_vectors_1t", reps, [&] {
    (void)must(session.run_vectors(batch, {.max_threads = 1}), "run_vectors");
  });
  const double run_nt_ms = probe_ms("platform.run_vectors", std::max(reps, 5), [&] {
    (void)must(session.run_vectors(batch), "run_vectors");
  });
  out.add("platform.run_1t_ns_per_vec", run_1t_ms * 1e6 / batch.size(), "ns");
  out.add("platform.run_nt_ns_per_vec", run_nt_ms * 1e6 / batch.size(), "ns");
  out.add("platform.pack_unpack_ns_per_vec", run_1t_ms * 1e6 / batch.size() - interp_ns, "ns");
  out.add("platform.shard_speedup", run_1t_ms / run_nt_ms, "x");

  auto pool = must(pp::rt::DevicePool::create(1, cd.fabric.rows(), cd.fabric.cols()), "pool");
  must(pool.register_design("adder8", cd), "register");
  const auto plain = window_stats(pool, batch, want, 2, out);  // also warms
  const double job_ms = probe_ms("rt.pool_job", std::max(reps, 5), [&] {
    (void)must(pool.run_sync("adder8", batch), "pool job");
  });
  out.add("rt.job_overhead_ms", job_ms - run_nt_ms, "ms");
  out.add("sim.fast_pass_frac",
          static_cast<double>(plain.fast_passes) / (plain.fast_passes + plain.slow_passes),
          "fraction");

  // JIT-on pool over the probe's cache (a cache hit, like any re-deploy).
  setenv("PP_JIT_CACHE", jit_options.cache_dir.c_str(), 1);
  pp::rt::PoolOptions options;
  options.device.jit = true;
  auto jit_pool = must(
      pp::rt::DevicePool::create(1, cd.fabric.rows(), cd.fabric.cols(), options), "jit pool");
  must(jit_pool.register_design("adder8", cd), "register");
  (void)must(jit_pool.run_sync("adder8", batch, pp::rt::RunOptions{.engine = pp::platform::Engine::kJit}),
             "jit warm-up");
  const auto on = window_stats(jit_pool, batch, want, 4, out);
  out.add("rt.jit_pass_frac",
          static_cast<double>(on.jit_passes) / (on.fast_passes + on.slow_passes), "fraction");
  out.add("rt.jit_fallbacks", static_cast<double>(on.jit_fallbacks), "count");
}

// ---- serve_mix layers -------------------------------------------------------

void serve_mix_probes(const Config& cfg, Outcome& out) {
  const double window_s = cfg.quick ? 0.3 : 1.5;
  std::vector<Design> designs;
  std::vector<CompiledDesign> compiled;
  std::vector<Batch> batches;
  std::vector<std::vector<BitVector>> want;
  pp::util::Rng rng(cfg.seed);
  for (const char* name : {"adder4", "parity8", "mux4", "counter4"}) {
    designs.push_back(make_design(name));
    compiled.push_back(compile(designs.back()));
    batches.push_back(random_batch(rng, designs.back(), kServeMixVectors));
    want.push_back(reference(designs.back(), batches.back()));
  }
  const int rows = compiled[0].fabric.rows(), cols = compiled[0].fabric.cols();

  // PPSV codec on the workload's real batches: submit + result per job.
  const int iters = cfg.quick ? 200 : 2000;
  double enc_ms = 0, dec_ms = 0, bytes = 0;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    pp::serve::SubmitBatchMsg submit;
    submit.request_id = 1;
    submit.design = designs[d].name;
    submit.cycles = static_cast<std::uint32_t>(designs[d].cycles);
    submit.vector_count = static_cast<std::uint32_t>(batches[d].size());
    submit.input_count = static_cast<std::uint16_t>(batches[d][0].size());
    pp::serve::ResultMsg result;
    result.request_id = 1;
    result.vector_count = submit.vector_count;
    result.output_count = static_cast<std::uint16_t>(want[d][0].size());
    std::vector<std::uint8_t> sframe, rframe;
    {
      Span s("serve.encode");
      enc_ms += time_ms([&] {
        for (int i = 0; i < iters; ++i) {
          submit.planes = pp::platform::pack_bit_planes(batches[d], submit.input_count);
          sframe = pp::serve::encode_submit_batch(submit);
          result.planes = pp::platform::pack_bit_planes(want[d], result.output_count);
          rframe = pp::serve::encode_result(result);
        }
      });
    }
    {
      Span s("serve.decode");
      dec_ms += time_ms([&] {
        for (int i = 0; i < iters; ++i) {
          auto sm = must(pp::serve::decode_submit_batch(
                             must(pp::serve::decode_frame(sframe), "frame")),
                         "submit");
          (void)must(pp::platform::unpack_bit_planes(sm.planes, sm.vector_count, sm.input_count),
                     "unpack");
          auto rm = must(pp::serve::decode_result(must(pp::serve::decode_frame(rframe), "frame")),
                         "result");
          auto got = must(pp::platform::unpack_bit_planes(rm.planes, rm.vector_count,
                                                          rm.output_count),
                          "unpack");
          if (i == 0) {
            ++out.attempted;
            check(got, want[d], out);
          }
        }
      });
    }
    bytes += sframe.size() + rframe.size();
  }
  const double jobs = static_cast<double>(iters) * designs.size();
  out.add("serve.encode_us", enc_ms * 1e3 / jobs, "us");
  out.add("serve.decode_us", dec_ms * 1e3 / jobs, "us");
  out.add("serve.bytes_per_job", bytes / designs.size(), "bytes");

  // Activation: rotate the personalities of one device.
  {
    auto device = must(pp::rt::Device::create(rows, cols), "device");
    for (std::size_t d = 0; d < designs.size(); ++d)
      must(device.load(designs[d].name, compiled[d]), "load");
    must(device.activate(designs.back().name), "activate");
    const auto before = device.stats();
    std::vector<double> ms;
    for (int i = 0; i < (cfg.quick ? 8 : 80); ++i) {
      Span s("rt.activate");
      ms.push_back(time_ms(
          [&] { must(device.activate(designs[i % designs.size()].name), "activate"); }));
    }
    const auto after = device.stats();
    out.add("rt.activate_ms", median(ms), "ms");
    out.add("rt.delta_fraction",
            static_cast<double>(after.delta_bytes - before.delta_bytes) /
                (after.full_bytes - before.full_bytes),
            "fraction");
  }

  // The mix in-process (no wire), then over the wire, in serve_mix's rounds:
  // one job per tenant, tenants one design apart, then the three replies.
  const auto closed_loop = [&](auto submit, auto wait) {
    using Handle = std::decay_t<decltype(*submit(0, std::size_t{0}))>;
    const auto failed = [&](const pp::Status& s) {
      ++(s.code() == pp::StatusCode::kUnavailable ? out.refused : out.errors);
    };
    std::vector<double> ms;
    const auto t0 = Clock::now();
    for (std::size_t round = 0; seconds_since(t0) < window_s; ++round) {
      std::vector<std::optional<Handle>> jobs(3);
      std::vector<Clock::time_point> started(3);
      for (int c = 0; c < 3; ++c) {
        started[c] = Clock::now();
        auto job = submit(c, (c + round) % designs.size());
        if (job.ok()) {
          jobs[c].emplace(std::move(*job));
        } else {
          ++out.attempted;
          failed(job.status());
        }
      }
      for (int c = 0; c < 3; ++c) {
        if (!jobs[c]) continue;
        auto got = wait(c, *jobs[c]);
        ++out.attempted;
        if (!got.ok()) {
          failed(got.status());
          continue;
        }
        check(*got, want[(c + round) % designs.size()], out);
        ms.push_back(seconds_since(started[c]) * 1e3);
      }
    }
    return ms;
  };
  const auto priority = [](int c) {
    return c % 2 == 0 ? pp::rt::Priority::kInteractive : pp::rt::Priority::kBatch;
  };
  {
    auto pool = must(pp::rt::DevicePool::create(2, rows, cols), "pool");
    for (std::size_t d = 0; d < designs.size(); ++d)
      must(pool.register_design(designs[d].name, compiled[d]), "register");
    Span s("rt.pool_mix");
    const auto ms = closed_loop(
        [&](int c, std::size_t d) {
          pp::rt::SubmitOptions o;
          o.cycles = designs[d].cycles;
          o.priority = priority(c);
          return pool.submit(designs[d].name, batches[d], o);
        },
        [](int, pp::rt::Job& job) { return job.wait(); });
    out.add("rt.pool_job_p50_ms", median(ms), "ms");
    out.add("rt.pool_job_p99_ms", percentile(ms, 0.99), "ms");
  }
  {
    auto server = must(
        pp::serve::Server::create(must(pp::rt::DevicePool::create(2, rows, cols), "pool")),
        "server");
    std::vector<pp::serve::Client> clients;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(must(
          pp::serve::Client::connect("127.0.0.1", server.port(), "t" + std::to_string(c)),
          "connect"));
      for (std::size_t d = 0; d < designs.size(); ++d)
        must(clients.back().register_design(designs[d].name, compiled[d]), "register");
    }
    const auto pool_before = server.pool().stats();
    const auto server_before = server.stats();
    Span s("serve.wire_mix");
    (void)closed_loop(
        [&](int c, std::size_t d) {
          pp::serve::ClientSubmitOptions o;
          o.cycles = static_cast<std::uint32_t>(designs[d].cycles);
          o.priority = priority(c);
          return clients[c].submit(designs[d].name, batches[d], o);
        },
        [&](int c, std::uint64_t id) { return clients[c].wait(id); });
    const auto pool_after = server.pool().stats();
    const auto sum = [](const pp::rt::PoolStats& p, std::uint64_t pp::rt::DeviceStats::*f) {
      std::uint64_t n = 0;
      for (const auto& dev : p.device) n += dev.*f;
      return static_cast<double>(n);
    };
    const double jobs_done = sum(pool_after, &pp::rt::DeviceStats::jobs_completed) -
                             sum(pool_before, &pp::rt::DeviceStats::jobs_completed);
    out.add("rt.activations_per_job",
            (sum(pool_after, &pp::rt::DeviceStats::activations) -
             sum(pool_before, &pp::rt::DeviceStats::activations)) / jobs_done,
            "count");
    out.add("rt.batched_job_frac",
            (sum(pool_after, &pp::rt::DeviceStats::batched_jobs) -
             sum(pool_before, &pp::rt::DeviceStats::batched_jobs)) / jobs_done,
            "fraction");
    out.add("rt.affinity_active_frac",
            static_cast<double>(pool_after.affinity_active - pool_before.affinity_active) /
                (pool_after.jobs_submitted - pool_before.jobs_submitted),
            "fraction");
    out.add("serve.admission_rejects",
            static_cast<double>(server.stats().jobs_rejected - server_before.jobs_rejected),
            "count");
  }
}

}  // namespace

void run_layer_probes(const Config& cfg, Outcome& out) {
  cold_start_probes(cfg, out);
  bulk_eval_probes(cfg, out);
  serve_mix_probes(cfg, out);
}

}  // namespace perfbench
