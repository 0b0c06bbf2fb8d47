// Shared plumbing of the perfbench workloads: run configuration, failure
// handling, timing and order statistics, the seeded designs/stimulus with
// their independent map::Netlist reference, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/executor.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using pp::platform::BitVector;
using pp::platform::InputVector;
using Batch = std::vector<InputVector>;
using Clock = std::chrono::steady_clock;

/// One invocation of the benchmark (see main.cpp for the flags).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smallest size: one set-up, one probe repetition.
  bool quick = false;
  /// Scratch directory for JIT caches and trace files (inside the checkout).
  std::string work_dir;

  [[nodiscard]] int probe_reps() const { return quick ? 1 : 3; }
};

/// Any library failure aborts the run: main() reports it and exits non-zero
/// without printing a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void must(const pp::Status& s, const std::string& what) {
  if (!s.ok()) throw BenchError(what + ": " + s.to_string());
}

template <class T>
T must(pp::Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().to_string());
  return std::move(*r);
}

// ---- timing and statistics -------------------------------------------------

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Milliseconds one call of `fn` takes.
[[nodiscard]] inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0) * 1e3;
}

[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1] (0: the smallest value).
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Job latencies of a closed-loop window, cut into blocks (one second by
/// default) by completion time.  Throughput and p50 are medians over whole
/// blocks, so a burst of host noise moves one block rather than the run; p99
/// is taken in the quietest block, because host preemption bursts set the
/// tail of sub-millisecond jobs far more than the code does.
struct BlockWindow {
  double block_s;
  std::vector<std::vector<double>> blocks;  ///< per block: latencies, ms

  explicit BlockWindow(double seconds, double block_s = 1.0)
      : block_s(block_s),
        blocks(std::max<std::size_t>(1, static_cast<std::size_t>(seconds / block_s))) {}
  /// Records a job that completed `at_s` into the window (jobs past the
  /// last whole block are dropped).
  void add(double at_s, double ms) {
    const auto b = static_cast<std::size_t>(at_s / block_s);
    if (b < blocks.size()) blocks[b].push_back(ms);
  }
  /// Adds `other`'s blocks after this window's (windows of separate slices).
  void append(const BlockWindow& other) {
    blocks.insert(blocks.end(), other.blocks.begin(), other.blocks.end());
  }
  /// `stat` applied to each non-empty block's latencies.
  template <class Stat>
  [[nodiscard]] std::vector<double> per_block(Stat stat) const {
    std::vector<double> v;
    for (const auto& b : blocks)
      if (!b.empty()) v.push_back(stat(b));
    return v;
  }
  [[nodiscard]] double jobs_per_s() const {
    return median(per_block([this](const std::vector<double>& b) { return b.size() / block_s; }));
  }
  [[nodiscard]] double p50_ms() const {
    return median(per_block([](const std::vector<double>& b) { return median(b); }));
  }
  [[nodiscard]] double p99_ms() const {
    const auto v = per_block([](const std::vector<double>& b) { return percentile(b, 0.99); });
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
  }
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> v;
    for (const auto& b : blocks) v.insert(v.end(), b.begin(), b.end());
    return v;
  }
};

/// Host memory high-water mark of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Creates a fresh empty directory under the run's work directory.
[[nodiscard]] std::string fresh_dir(const Config& cfg, const std::string& name);

// ---- result accounting -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: operation accounting plus its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;    ///< operations that returned a failure Status
  std::uint64_t wrong = 0;     ///< results that disagree with the reference
  std::uint64_t refused = 0;   ///< submits refused with kBusy
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const { return wrong == 0 && errors == 0; }
  [[nodiscard]] std::uint64_t failed() const { return errors + wrong + refused; }
};

// ---- designs, stimulus, reference ------------------------------------------

/// A workload design: its netlist and, for clocked designs, the stream
/// length its batches are cut into (0 = combinational).
struct Design {
  std::string name;
  pp::map::Netlist netlist;
  std::size_t cycles = 0;
};

/// parity8, mux4, adder4, adder8 (map::make_*) or counter4 (8-cycle streams).
[[nodiscard]] Design make_design(const std::string& name);

/// `count` random input vectors for `design` (a multiple of its cycles).
[[nodiscard]] Batch random_batch(pp::util::Rng& rng, const Design& design,
                                 std::size_t count);

/// The independent reference: map::Netlist::evaluate per vector, or
/// Netlist::step from reset per stream for clocked designs.
[[nodiscard]] std::vector<BitVector> reference(const Design& design,
                                               const Batch& batch);

/// Compiles `design` client-side with the default options.
[[nodiscard]] pp::platform::CompiledDesign compile(const Design& design);

/// Adds one wrong result to `out` when `got` differs from `want`.
void check(const std::vector<BitVector>& got, const std::vector<BitVector>& want,
           Outcome& out);

// ---- tracing ---------------------------------------------------------------

/// One recorded span: a timed call into a layer's public API.
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< enclosing span on the same thread (0: root)
  std::uint64_t request = 0;  ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span recorder.  Disabled (the default) a Span costs one
/// relaxed load; enabled, spans append to a mutex-guarded buffer.
namespace tracer {
void enable(bool on);
[[nodiscard]] bool enabled();
/// Spans recorded so far, in completion order.
[[nodiscard]] std::vector<SpanRecord> snapshot();
/// Writes every recorded span as Chrome trace-event JSON.
void write_chrome_trace(const std::string& path);
}  // namespace tracer

/// RAII span around one layer call; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  /// A span under `parent` (nullptr: a root) that leaves the thread's
  /// open-span chain alone, for operations that interleave on one thread.
  Span(const char* name, std::uint64_t request, const Span* parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  bool nested_ = true;  // pushed on (and popped from) the open-span chain
  SpanRecord rec_;
};

/// The traced half of a --trace 1 run: runs `window` untraced, then with
/// spans on, and prints the self-time budget of the spans under the roots
/// named `root` against the untraced per-operation time `window` returns
/// (ms).  Adds trace.unaccounted_frac, trace.overhead_frac and trace.spans.
void trace_budget(const std::string& workload, const std::string& root,
                  const std::function<double()>& window, Outcome& out);

}  // namespace perfbench
