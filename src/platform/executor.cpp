#include "platform/executor.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "core/bitstream.h"
#include "util/thread_pool.h"

namespace pp::platform {
namespace {

constexpr std::size_t kLanes = sim::Evaluator::kBatchLanes;

/// Evaluate granules [granule_begin, granule_end) of a batch on one engine
/// instance.  `stimulus` holds streams of `cycles` vectors, stream-major
/// (`stimulus[s * cycles + c]`), one stream per lane; an unclocked batch is
/// the cycles == 1 case.  Each granule packs `granule_words * kLanes`
/// streams (fewer in the final one) straight into the cycle-major SoA
/// planes the engines speak — input j of cycle c is plane row
/// `c * nin + j` — and unpacks one result vector per cycle.  `clocked`
/// picks the engine call: run_cycles runs every cycle with per-lane
/// register state in the engine's scratch, each granule from reset
/// (streams are independent, so shards need no state exchange); eval_wide
/// evaluates independent vectors.  The packing scratch is allocated once
/// and reused across the granules.  Fails on a non-binary output,
/// whichever engine produced it.
[[nodiscard]] Status eval_granules(sim::Evaluator& eval,
                                   std::span<const InputVector> stimulus,
                                   std::size_t cycles, bool clocked,
                                   const std::vector<std::string>& output_names,
                                   std::vector<BitVector>& results,
                                   std::size_t granule_begin,
                                   std::size_t granule_end,
                                   std::size_t granule_words) {
  const std::size_t nin = eval.input_count();
  const std::size_t nout = eval.output_count();
  const std::size_t streams = stimulus.size() / cycles;
  const std::size_t granule_lanes = granule_words * kLanes;
  // Sized for a full granule, truncated views for the final partial one.
  // Stimulus is two-valued (BitVector), so the input unknown plane is
  // always all-zero — exactly what arms the compiled engine's fast path.
  std::vector<std::uint64_t> in_value(nin * cycles * granule_words);
  const std::vector<std::uint64_t> in_unknown(nin * cycles * granule_words, 0);
  std::vector<std::uint64_t> out_value(nout * cycles * granule_words);
  std::vector<std::uint64_t> out_unknown(nout * cycles * granule_words);
  for (std::size_t g = granule_begin; g < granule_end; ++g) {
    const std::size_t s0 = g * granule_lanes;
    const std::size_t lanes = std::min(granule_lanes, streams - s0);
    const std::size_t words = (lanes + kLanes - 1) / kLanes;
    const std::span<const std::uint64_t> in_v(in_value.data(),
                                              nin * cycles * words);
    const std::span<const std::uint64_t> in_u(in_unknown.data(), in_v.size());
    const std::span<std::uint64_t> out_v(out_value.data(),
                                         nout * cycles * words);
    const std::span<std::uint64_t> out_u(out_unknown.data(), out_v.size());
    // Each plane word gathers its (up to) 64 lanes in one accumulator,
    // branch-free; lanes past the batch end stay zero.
    for (std::size_t word = 0; word < words; ++word) {
      const std::size_t l0 = s0 + word * kLanes;
      const std::size_t n = std::min(kLanes, s0 + lanes - l0);
      for (std::size_t c = 0; c < cycles; ++c)
        for (std::size_t j = 0; j < nin; ++j) {
          std::uint64_t acc = 0;
          for (std::size_t b = 0; b < n; ++b)
            acc |= std::uint64_t{stimulus[(l0 + b) * cycles + c][j]} << b;
          in_value[(c * nin + j) * words + word] = acc;
        }
    }
    if (Status s =
            clocked ? eval.run_cycles(in_v, in_u, out_v, out_u, cycles, lanes)
                    : eval.eval_wide(in_v, in_u, out_v, out_u, lanes);
        !s.ok())
      return s;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t word = lane / kLanes;
      const std::uint64_t bit = std::uint64_t{1} << (lane % kLanes);
      for (std::size_t c = 0; c < cycles; ++c) {
        BitVector& r = results[(s0 + lane) * cycles + c];
        r.assign(nout, false);
        for (std::size_t k = 0; k < nout; ++k) {
          const std::size_t w = (c * nout + k) * words + word;
          if (out_unknown[w] & bit)
            return Status::internal(
                clocked ? "run_cycles: output '" + output_names[k] +
                              "' settled to X at cycle " + std::to_string(c) +
                              " (unreset register state?)"
                        : "run_vectors: output '" + output_names[k] +
                              "' settled to X");
          r[k] = (out_value[w] & bit) != 0;
        }
      }
    }
  }
  return Status();
}

}  // namespace

/// Bookkeeping for the background JIT kernel build.  The async task is
/// fully self-contained (it compiles its own program image from value
/// copies of the binding), so this state moves with the executor and the
/// future's destructor is the only join point.
struct BatchExecutor::JitState {
  bool requested = false;  ///< warm_jit has launched the build
  bool attempted = false;  ///< the build finished (engine or status below)
  Status status;           ///< failure reason when attempted && !engine
  std::future<Result<sim::JitEval>> future;
  std::unique_ptr<sim::JitEval> engine;
  /// Build events not yet attributed to a successful run's last_run_.
  std::uint64_t pending_compiles = 0;
  std::uint64_t pending_cache_hits = 0;
};

BatchExecutor::BatchExecutor(BatchExecutor&&) noexcept = default;
BatchExecutor& BatchExecutor::operator=(BatchExecutor&&) noexcept = default;
BatchExecutor::~BatchExecutor() = default;

BatchExecutor::BatchExecutor(const sim::Circuit& circuit,
                             std::vector<sim::NetId> in_nets,
                             std::vector<sim::NetId> out_nets,
                             std::vector<std::string> output_names,
                             sim::LevelMap levels,
                             std::vector<sim::ExternalReg> regs)
    : circuit_(&circuit),
      in_nets_(std::move(in_nets)),
      out_nets_(std::move(out_nets)),
      output_names_(std::move(output_names)),
      levels_(std::move(levels)),
      regs_(std::move(regs)) {
  // Clocked bindings: declared external register loops, or any behavioural
  // state-holding gate in the circuit itself.
  sequential_ = !regs_.empty();
  for (const sim::Gate& g : circuit.gates())
    if (g.kind == sim::GateKind::kDff || g.kind == sim::GateKind::kLatch ||
        g.kind == sim::GateKind::kCElement)
      sequential_ = true;
}

Status BatchExecutor::ensure_compiled() {
  if (compiled_attempted_) return compiled_status_;
  compiled_attempted_ = true;
  auto engine =
      sequential_
          ? sim::CompiledEval::compile_sequential(
                *circuit_, in_nets_, out_nets_, regs_,
                levels_.empty() ? nullptr : &levels_)
          : sim::CompiledEval::compile(*circuit_, in_nets_, out_nets_,
                                       levels_.empty() ? nullptr : &levels_);
  if (!engine.ok()) {
    compiled_status_ = engine.status();
    return compiled_status_;
  }
  compiled_ = std::make_unique<sim::CompiledEval>(std::move(*engine));
  return compiled_status_;
}

Result<sim::Evaluator*> BatchExecutor::ensure_event(std::uint64_t budget) {
  if (event_engine_) {
    event_engine_->set_max_events(budget);
    return static_cast<sim::Evaluator*>(event_engine_.get());
  }
  auto engine =
      sim::EventEval::create(*circuit_, in_nets_, out_nets_, budget, regs_);
  if (!engine.ok()) return engine.status();
  event_engine_ = std::make_unique<sim::EventEval>(std::move(*engine));
  return static_cast<sim::Evaluator*>(event_engine_.get());
}

Status BatchExecutor::compiled_engine_status() { return ensure_compiled(); }

void BatchExecutor::warm_jit(const sim::JitOptions& options) {
  if (!jit_state_) jit_state_ = std::make_unique<JitState>();
  JitState& js = *jit_state_;
  if (js.requested) return;
  js.requested = true;
  // The task compiles its own program image from value copies of the
  // binding (the circuit outlives the executor by contract): it never
  // touches the cached engines a dispatcher may be running on, and it
  // keeps working if this executor is moved mid-build.
  const sim::Circuit* circuit = circuit_;
  js.future = std::async(
      std::launch::async,
      [circuit, seq = sequential_, in = in_nets_, out = out_nets_,
       regs = regs_, levels = levels_, options]() -> Result<sim::JitEval> {
        auto base = seq ? sim::CompiledEval::compile_sequential(
                              *circuit, in, out, regs,
                              levels.empty() ? nullptr : &levels)
                        : sim::CompiledEval::compile(
                              *circuit, in, out,
                              levels.empty() ? nullptr : &levels);
        if (!base.ok()) return base.status();
        return sim::JitEval::build(*base, options);
      });
}

sim::JitEval* BatchExecutor::jit_ready() {
  if (!jit_state_ || !jit_state_->requested) return nullptr;
  JitState& js = *jit_state_;
  if (!js.attempted) {
    if (!js.future.valid() ||
        js.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
      return nullptr;  // still building — the caller keeps falling back
    js.attempted = true;
    auto built = js.future.get();
    if (built.ok()) {
      js.engine = std::make_unique<sim::JitEval>(std::move(*built));
      const sim::JitBuildInfo& bi = js.engine->build_info();
      if (bi.compiled) {
        ++stats_.jit_compiles;
        ++js.pending_compiles;
      }
      if (bi.cache_hit) {
        ++stats_.jit_cache_hits;
        ++js.pending_cache_hits;
      }
      js.status = Status();
    } else {
      js.status = built.status();
    }
  }
  return js.engine.get();
}

Status BatchExecutor::ensure_jit() {
  if (!jit_state_ || !jit_state_->requested) warm_jit();
  JitState& js = *jit_state_;
  if (!js.attempted && js.future.valid()) js.future.wait();
  (void)jit_ready();
  return js.status;
}

Status BatchExecutor::jit_engine_status() { return ensure_jit(); }

sim::KernelStats BatchExecutor::kernel_totals() const noexcept {
  // The counters live on each engine's shared state, so sharded clones
  // aggregate into the same totals; either engine may have served past
  // runs.
  sim::KernelStats totals;
  if (compiled_) totals += compiled_->kernel_stats();
  if (jit_state_ && jit_state_->engine)
    totals += jit_state_->engine->kernel_stats();
  return totals;
}

ExecutorStats BatchExecutor::stats() const noexcept {
  ExecutorStats out = stats_;
  out += kernel_totals();
  return out;
}

Result<std::vector<BitVector>> BatchExecutor::run(
    std::span<const InputVector> vectors, const RunOptions& options) {
  if (options.mode != 0 || options.sweep_modes)
    return Status::invalid_argument(
        "run_vectors: this binding serves a single configuration view — "
        "mode selection and sweeps need a polymorphic session "
        "(Session::load_poly)");
  if (sequential_)
    return Status::failed_precondition(
        "run_vectors: clocked design (register state) — vectors are cycles "
        "of a stream, not independent; use run_cycles");
  return run_batch(vectors, 1, /*clocked=*/false, options);
}

Result<std::vector<BitVector>> BatchExecutor::run_cycles(
    std::span<const InputVector> stimulus, std::size_t cycles,
    const RunOptions& options) {
  if (options.mode != 0 || options.sweep_modes)
    return Status::invalid_argument(
        "run_cycles: this binding serves a single configuration view — "
        "clocked polymorphic designs run per-mode through Session::load_poly "
        "with RunOptions::mode");
  if (cycles < 1)
    return Status::invalid_argument("run_cycles: cycles must be >= 1");
  if (stimulus.size() % cycles != 0)
    return Status::invalid_argument(
        "run_cycles: " + std::to_string(stimulus.size()) +
        " stimulus vectors do not divide into whole " +
        std::to_string(cycles) + "-cycle streams");
  return run_batch(stimulus, cycles, /*clocked=*/true, options);
}

Result<std::vector<BitVector>> BatchExecutor::run_batch(
    std::span<const InputVector> stimulus, std::size_t cycles, bool clocked,
    const RunOptions& options) {
  const std::size_t nin = in_nets_.size();
  for (const InputVector& v : stimulus)
    if (v.size() != nin)
      return Status::invalid_argument(
          std::string(clocked ? "run_cycles" : "run_vectors") +
          ": every vector must have " + std::to_string(nin) +
          " input values");

  std::vector<BitVector> results(stimulus.size());
  if (stimulus.empty()) return results;

  // Engine selection: kAuto prefers a *ready* JIT kernel (never waits on a
  // build), then the bit-parallel compiled engine (the sequential program
  // for a clocked binding), then the event-driven engine when CompiledEval
  // rejects the design; kCompiled/kJit surface their engine's rejection
  // instead.  Every engine sits behind sim::Evaluator, so everything below
  // is engine-agnostic.
  sim::Evaluator* engine = nullptr;
  if (options.engine == Engine::kJit) {
    if (Status s = ensure_jit(); !s.ok()) return s;
    engine = jit_state_->engine.get();
  } else if (options.engine != Engine::kEventDriven) {
    if (options.engine == Engine::kAuto) engine = jit_ready();
    if (!engine) {
      const Status s = ensure_compiled();
      if (s.ok()) {
        engine = compiled_.get();
      } else if (options.engine == Engine::kCompiled) {
        return s;
      }
    }
  }
  if (!engine) {
    auto ev = ensure_event(options.max_events_per_vector);
    if (!ev.ok()) return ev.status();
    engine = *ev;
  }
  // The JIT serves the same compiled program natively, so its runs count
  // in compiled_runs; jit_passes says how many kernel passes the generated
  // code took.  A kAuto run that wanted the JIT (warm requested) but ran
  // elsewhere is a fallback.
  const bool on_jit = jit_state_ && engine == jit_state_->engine.get();
  const bool on_compiled = on_jit || engine == compiled_.get();
  const bool jit_fell_back = !on_jit && options.engine == Engine::kAuto &&
                             jit_state_ && jit_state_->requested;
  ++stats_.runs;
  ++(on_compiled ? stats_.compiled_runs : stats_.event_runs);
  if (jit_fell_back) ++stats_.jit_fallbacks;

  const sim::KernelStats before = kernel_totals();

  // Pack streams into wide-batch granules (the engine's preferred words —
  // 512 lanes for the default compiled engine, one 64-lane word for the
  // event engine) and shard whole granules across the pool.  Compiled
  // clones share the immutable program and carry only scratch planes;
  // event clones copy the settled base simulator once per shard.
  // max_threads may exceed the pool size: extra shards simply queue, which
  // also lets single-core hosts exercise the cloning path.
  util::ThreadPool& pool = util::global_pool();
  std::size_t shards =
      options.max_threads == 0 ? pool.worker_count() : options.max_threads;
  std::size_t gwords = std::max<std::size_t>(1, engine->preferred_words());
  // A full-width granule on a small or mid-size batch can leave most of the
  // pool idle (one 512-lane granule per shard).  Shrink the granule — never
  // below one word — until there is at least one granule per worker; wide
  // amortization matters less than an idle core.
  const std::size_t streams = stimulus.size() / cycles;
  const std::size_t total_words = (streams + kLanes - 1) / kLanes;
  if (shards > 1 && gwords > 1)
    gwords = std::max<std::size_t>(
        1, std::min(gwords, (total_words + shards - 1) / shards));
  const std::size_t glanes = gwords * kLanes;
  const std::size_t ngranules = (streams + glanes - 1) / glanes;
  shards = std::min(shards, ngranules);
  const std::size_t chunk = (ngranules + shards - 1) / shards;
  shards = (ngranules + chunk - 1) / chunk;

  // Each shard writes only its own status slot; the first failing shard
  // in granule order reports.
  std::vector<Status> shard_status(shards);
  util::parallel_for(pool, shards, [&](std::size_t s) {
    // A lone shard streams through the engine itself (the serial reference
    // path); sharded runs give each shard its own clone.
    const std::unique_ptr<sim::Evaluator> clone =
        shards > 1 ? engine->clone() : nullptr;
    shard_status[s] = eval_granules(
        clone ? *clone : *engine, stimulus, cycles, clocked, output_names_,
        results, s * chunk, std::min(ngranules, (s + 1) * chunk), gwords);
  });

  // The lifetime totals read the engines live, so they include failed
  // runs (their passes did execute); last_run_ is only replaced when a run
  // succeeds, per its documented contract.
  for (Status& s : shard_status)
    if (!s.ok()) return std::move(s);
  stats_.vectors_run += stimulus.size();
  last_run_ = {};
  last_run_ += kernel_totals() - before;
  last_run_.runs = 1;
  last_run_.vectors_run = stimulus.size();
  last_run_.compiled_runs = on_compiled;
  last_run_.event_runs = !on_compiled;
  last_run_.jit_fallbacks = jit_fell_back;
  if (jit_state_) {
    last_run_.jit_compiles = std::exchange(jit_state_->pending_compiles, 0);
    last_run_.jit_cache_hits = std::exchange(jit_state_->pending_cache_hits, 0);
  }
  return results;
}

std::vector<std::uint8_t> pack_bit_planes(std::span<const BitVector> vectors,
                                          std::size_t width) {
  const std::size_t plane_bytes = (vectors.size() + 7) / 8;
  std::vector<std::uint8_t> bytes(width * plane_bytes);
  // Each plane byte gathers its (up to) 8 vectors in one accumulator,
  // branch-free; pad bits past the last vector stay zero.
  for (std::size_t byte = 0; byte < plane_bytes; ++byte) {
    const std::size_t v0 = byte * 8;
    const std::size_t n = std::min<std::size_t>(8, vectors.size() - v0);
    for (std::size_t i = 0; i < width; ++i) {
      unsigned acc = 0;
      for (std::size_t b = 0; b < n; ++b)
        acc |= unsigned{vectors[v0 + b][i]} << b;
      bytes[i * plane_bytes + byte] = static_cast<std::uint8_t>(acc);
    }
  }
  return bytes;
}

std::uint32_t result_checksum(std::span<const BitVector> results) {
  // Self-delimiting serialization (count, then per-vector width + packed
  // bits) so [ [1,0] ] and [ [1],[0] ] can never collide structurally; the
  // byte stream goes through the same CRC-32 the bitstream codecs use.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(8 + results.size() * 4);
  const auto put_u32 = [&bytes](std::uint32_t value) {
    for (int i = 0; i < 4; ++i)
      bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  };
  put_u32(static_cast<std::uint32_t>(results.size()));
  for (const BitVector& v : results) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i]) acc |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        bytes.push_back(acc);
        acc = 0;
      }
    }
    if (v.size() % 8 != 0) bytes.push_back(acc);
  }
  return core::crc32(bytes);
}

Result<std::vector<BitVector>> unpack_bit_planes(
    std::span<const std::uint8_t> bytes, std::size_t count,
    std::size_t width) {
  const std::size_t plane_bytes = (count + 7) / 8;
  if (bytes.size() != width * plane_bytes)
    return Status::invalid_argument(
        "unpack_bit_planes: " + std::to_string(count) + " vectors x " +
        std::to_string(width) + " bits need exactly " +
        std::to_string(width * plane_bytes) + " plane bytes, got " +
        std::to_string(bytes.size()));
  // Reject non-canonical pad bits: two byte streams must never decode to
  // the same batch (wire frames are CRC-covered but the CRC cannot see a
  // semantically-ignored bit).
  if (count % 8 != 0)
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint8_t last = bytes[i * plane_bytes + plane_bytes - 1];
      if ((last & static_cast<std::uint8_t>(~((1u << (count % 8)) - 1))) != 0)
        return Status::invalid_argument(
            "unpack_bit_planes: non-zero pad bits in plane " +
            std::to_string(i));
    }
  std::vector<BitVector> vectors(count, BitVector(width, false));
  for (std::size_t v = 0; v < count; ++v) {
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (v % 8));
    for (std::size_t i = 0; i < width; ++i)
      if ((bytes[i * plane_bytes + v / 8] & bit) != 0) vectors[v][i] = true;
  }
  return vectors;
}

}  // namespace pp::platform
