#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>

namespace perfbench {

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw BenchError("peak_rss_mb: no VmHWM in /proc/self/status");
}

std::string fresh_dir(const Config& cfg, const std::string& name) {
  static std::atomic<int> serial{0};
  const std::filesystem::path dir =
      std::filesystem::path(cfg.work_dir) / (name + "-" + std::to_string(++serial));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---- designs, stimulus, reference ------------------------------------------

Design make_design(const std::string& name) {
  namespace map = pp::map;
  if (name == "parity8") return {name, map::make_parity(8)};
  if (name == "mux4") return {name, map::make_mux4()};
  if (name == "adder4") return {name, map::make_ripple_adder(4)};
  if (name == "adder8") return {name, map::make_ripple_adder(8)};
  if (name == "counter4") return {name, map::make_counter(4), 8};
  throw BenchError("unknown design " + name);
}

Batch random_batch(pp::util::Rng& rng, const Design& design, std::size_t count) {
  Batch batch(count, InputVector(design.netlist.inputs().size()));
  for (auto& v : batch)
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.next_bool();
  return batch;
}

std::vector<BitVector> reference(const Design& design, const Batch& batch) {
  std::vector<BitVector> out;
  out.reserve(batch.size());
  if (design.cycles == 0) {
    for (const auto& v : batch) out.push_back(design.netlist.evaluate(v));
    return out;
  }
  std::vector<bool> state;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % design.cycles == 0) state = design.netlist.make_state();
    out.push_back(design.netlist.step(batch[i], state));
  }
  return out;
}

pp::platform::CompiledDesign compile(const Design& design) {
  return must(pp::platform::compile(design.netlist), "compile " + design.name);
}

void check(const std::vector<BitVector>& got, const std::vector<BitVector>& want,
           Outcome& out) {
  if (got != want) ++out.wrong;
}

// ---- tracing ---------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;
const Clock::time_point g_epoch = Clock::now();

thread_local std::uint64_t t_open = 0;  // innermost open span on this thread
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

namespace tracer {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> snapshot() {
  std::lock_guard lock(g_mutex);
  return g_spans;
}

void write_chrome_trace(const std::string& path) {
  const auto spans = snapshot();
  std::ofstream f(path);
  if (!f) throw BenchError("cannot write trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"span\":%llu,\"parent\":%llu,\"request\":%llu}}%s\n",
                  s.name.c_str(), s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  s.tid, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
}

}  // namespace tracer

Span::Span(const char* name, std::uint64_t request) : on_(tracer::enabled()) {
  if (!on_) return;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1);
  rec_.parent = t_open;
  rec_.request = request;
  rec_.tid = t_tid;
  t_open = rec_.id;
  rec_.start_ns = now_ns();
}

Span::Span(const char* name, std::uint64_t request, const Span* parent)
    : on_(tracer::enabled()), nested_(false) {
  if (!on_) return;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1);
  rec_.parent = parent ? parent->rec_.id : 0;
  rec_.request = request;
  rec_.tid = t_tid;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = now_ns();
  if (nested_) t_open = rec_.parent;
  std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(rec_));
}

namespace {

/// Per-operation self-time of every layer under the root spans named
/// `root`, recorded since span index `from`.
struct LayerBudget {
  std::vector<std::pair<std::string, double>> self_ms;  // per op, by layer
  double root_ms = 0;   // mean root span duration
  std::size_t ops = 0;  // root spans seen
};

LayerBudget layer_budget(const std::vector<SpanRecord>& spans, std::size_t from,
                         const std::string& root) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (std::size_t i = from; i < spans.size(); ++i) by_id[spans[i].id] = &spans[i];
  // A span belongs to the budget when its chain of parents reaches a root.
  const auto root_of = [&](const SpanRecord* s) -> const SpanRecord* {
    while (s->parent != 0) {
      const auto it = by_id.find(s->parent);
      if (it == by_id.end()) return nullptr;
      s = it->second;
    }
    return s->name == root ? s : nullptr;
  };
  std::map<std::uint64_t, double> child_ns;  // per span: time in its children
  for (const auto& [id, s] : by_id)
    if (s->parent != 0) child_ns[s->parent] += s->end_ns - s->start_ns;

  LayerBudget b;
  std::map<std::string, double> self_ns;
  double root_ns = 0;
  for (const auto& [id, s] : by_id) {
    if (!root_of(s)) continue;
    const double dur = s->end_ns - s->start_ns;
    if (s->parent == 0) {
      ++b.ops;
      root_ns += dur;
    } else {
      self_ns[s->name] += dur - child_ns[id];
    }
  }
  if (b.ops == 0) return b;
  b.root_ms = root_ns / b.ops / 1e6;
  for (const auto& [name, ns] : self_ns)
    b.self_ms.emplace_back(name, ns / b.ops / 1e6);
  std::sort(b.self_ms.begin(), b.self_ms.end(),
            [](const auto& a, const auto& c) { return a.second > c.second; });
  return b;
}

}  // namespace

void trace_budget(const std::string& workload, const std::string& root,
                  const std::function<double()>& window, Outcome& out) {
  const double untraced_ms = window();
  const std::size_t from = tracer::snapshot().size();
  tracer::enable(true);
  window();
  tracer::enable(false);
  const auto spans = tracer::snapshot();
  const LayerBudget budget = layer_budget(spans, from, root);
  double accounted = 0;
  std::printf("\nself-time budget, %s (per operation, %zu traced ops; shares "
              "of the untraced %.3f ms)\n",
              workload.c_str(), budget.ops, untraced_ms);
  std::printf("  %-28s %12s %8s\n", "layer", "self ms", "share");
  for (const auto& [name, ms] : budget.self_ms) {
    accounted += ms;
    std::printf("  %-28s %12.4f %7.1f%%\n", name.c_str(), ms,
                100.0 * ms / untraced_ms);
  }
  const double unaccounted = untraced_ms - accounted;
  const double overhead = budget.root_ms - untraced_ms;
  std::printf("  %-28s %12.4f %7.1f%%\n", "(unaccounted)", unaccounted,
              100.0 * unaccounted / untraced_ms);
  std::printf("  %-28s %12.4f %7.1f%%\n", "(tracing overhead)", overhead,
              100.0 * overhead / untraced_ms);
  out.add("trace.unaccounted_frac", unaccounted / untraced_ms, "fraction");
  out.add("trace.overhead_frac", overhead / untraced_ms, "fraction");
  out.add("trace.spans", static_cast<double>(spans.size() - from), "count");
}

}  // namespace perfbench
