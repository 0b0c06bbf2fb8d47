// Shared helpers for the per-figure/table bench binaries.  Every bench
// prints (a) what the paper reports and (b) what this reproduction measures,
// in the uniform table format consumed by EXPERIMENTS.md.
//
// Machine-readable output: every bench accepts `--json <path>` and, on
// exit, writes the metrics it recorded via `record()` as a JSON array of
// {"name", "metric", "value"} objects, plus an optional "devices" field on
// benches where the device count is part of the experiment's identity
// (docs/bench-json.md is the normative schema).  The BENCH trajectory
// consumes these, so record the headline number(s) of each experiment, not
// every table cell.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "util/table.h"

namespace pp::bench {

namespace detail {

inline std::string& json_path() {
  static std::string path;
  return path;
}

inline std::string& bench_name() {
  static std::string name = "bench";
  return name;
}

inline std::vector<std::string>& json_records() {
  static std::vector<std::string> records;
  return records;
}

inline void flush_json() {
  const std::string& path = json_path();
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench: cannot write --json file '%s'\n",
                 path.c_str());
    return;
  }
  std::fputs("[\n", f);
  const auto& records = json_records();
  for (std::size_t i = 0; i < records.size(); ++i)
    std::fprintf(f, "  %s%s\n", records[i].c_str(),
                 i + 1 < records.size() ? "," : "");
  std::fputs("]\n", f);
  std::fclose(f);
}

}  // namespace detail

/// Parse `--json <path>` from the command line and arrange for recorded
/// metrics to be written there at process exit (normal return or exit()).
/// Call first thing in main(); other arguments are ignored.  The bench's
/// record name is argv[0]'s basename.
inline void init(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    std::string_view name = argv[0];
    if (const auto slash = name.find_last_of('/');
        slash != std::string_view::npos)
      name.remove_prefix(slash + 1);
    detail::bench_name() = std::string(name);
  }
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string_view(argv[i]) == "--json") detail::json_path() = argv[i + 1];
  // Touch the records store before registering the atexit hook: function-
  // local statics are destroyed in reverse construction order relative to
  // atexit handlers, so constructing it first keeps it alive for the flush.
  detail::json_records();
  if (!detail::json_path().empty()) std::atexit(detail::flush_json);
}

namespace detail {

/// The one formatter behind record()/record_devices() — the schema
/// (docs/bench-json.md) is emitted in exactly one place.  `devices` is
/// the optional fleet-size field; nullptr omits it.
inline void push_record(std::string_view name, std::string_view metric,
                        double value, const int* devices) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"name\": \"%.*s\", \"metric\": \"%.*s\", "
                        "\"value\": %.17g",
                        static_cast<int>(name.size()), name.data(),
                        static_cast<int>(metric.size()), metric.data(),
                        value);
  if (n < 0 || n >= static_cast<int>(sizeof(buf))) return;  // oversized name
  const std::size_t left = sizeof(buf) - static_cast<std::size_t>(n);
  const int m = devices != nullptr
                    ? std::snprintf(buf + n, left, ", \"devices\": %d}",
                                    *devices)
                    : std::snprintf(buf + n, left, "}");
  if (m < 0 || m >= static_cast<int>(left))
    return;  // suffix would truncate: drop the record, never emit bad JSON
  json_records().push_back(buf);
}

}  // namespace detail

/// Record one machine-readable metric: {"name": ..., "metric": ...,
/// "value": ...}.  `name` identifies the experiment (usually the binary),
/// `metric` the measured quantity.  No-op cost when --json was not given.
/// Schema: docs/bench-json.md.
inline void record(std::string_view name, std::string_view metric,
                   double value) {
  detail::push_record(name, metric, value, nullptr);
}

/// As above, under this bench's own name (set by init()).
inline void record(std::string_view metric, double value) {
  record(detail::bench_name(), metric, value);
}

/// Record a metric measured on a fleet of `devices` fabric devices:
/// {"name": ..., "metric": ..., "value": ..., "devices": N}.  Use this for
/// every metric whose value only means something at a given device count
/// (throughput scaling curves), so the perf-trajectory tooling can key on
/// (name, metric, devices) instead of conflating fleet sizes.
inline void record_devices(std::string_view metric, double value,
                           int devices) {
  detail::push_record(detail::bench_name(), metric, value, &devices);
}

inline void experiment_header(const std::string& id,
                              const std::string& paper_claim) {
  util::banner(id);
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

/// Milliseconds per call of `run`, timed the same way for every engine a
/// bench compares: one untimed warm-up call, then the median of `samples`
/// samples, each summing back-to-back calls until they span at least
/// `min_sample_ms` — a ~10-µs kernel is sampled over hundreds of calls, a
/// ~30-ms one over one call.  `check` (untimed) runs after every call,
/// warm-up included; a failed call or check makes the result -1.
template <class Run, class Check>
double median_call_ms(Run&& run, Check&& check, double min_sample_ms,
                      int samples = 5) {
  using Clock = std::chrono::steady_clock;
  bool ok = run() && check();
  std::vector<double> per_call;
  for (int s = 0; s < samples && ok; ++s) {
    double ms = 0;
    int calls = 0;
    do {
      const auto t0 = Clock::now();
      ok = run();
      ms += std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
      ok = ok && check();
      ++calls;
    } while (ok && ms < min_sample_ms);
    per_call.push_back(ms / calls);
  }
  if (!ok) return -1;
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

/// Print the REPRODUCED/DIVERGENT verdict and record it as the bench's
/// `reproduced` metric (1 or 0) for the --json sink.
inline void verdict(bool ok, const std::string& what) {
  record("reproduced", ok ? 1 : 0);
  std::printf("[%s] %s\n", ok ? "REPRODUCED" : "DIVERGENT", what.c_str());
}

}  // namespace pp::bench
