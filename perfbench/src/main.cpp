// perfbench — the platform's end-to-end benchmark.
//
//   perfbench --workload cold_start|bulk_eval|serve_mix --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--quick]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// record spans around every timed layer call, print the workload's
// self-time budget, run the per-layer probes, write the spans as Chrome
// trace-event JSON under DIR/traces, and report the per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit status: 0 when every result matched the map::Netlist
// reference, 1 on any wrong or failed operation, 2 when the run could not
// complete (no result line).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double timed_setups(const Config& cfg, int reps, const std::function<void()>& setup) {
  if (cfg.quick) reps = 1;
  std::vector<double> s;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = rep == 0 ? kProcessStart : Clock::now();
    setup();
    s.push_back(seconds_since(t0));
  }
  std::printf("set-up: %d repetitions, median %.3f s\n", reps, median(s));
  return median(s);
}

void print_timing(const std::string& what, const std::vector<double>& ms) {
  // The highest percentile that still has at least ten samples beyond it.
  double tail = 0.5;
  for (double p : {0.9, 0.99, 0.999})
    if (ms.size() * (1 - p) >= 10) tail = p;
  std::printf("%s: n=%zu  p50 %.3f ms  p%g %.3f ms\n", what.c_str(), ms.size(),
              median(ms), tail * 100, percentile(ms, tail));
}

namespace {

/// Workers of the global evaluation pool that pick up a task within a
/// second (each task holds its worker until all have arrived).
std::size_t responsive_pool_workers() {
  auto& pool = pp::util::global_pool();
  const std::size_t n = pool.worker_count();
  const auto arrived = std::make_shared<std::atomic<std::size_t>>(0);
  const auto deadline = Clock::now() + std::chrono::seconds(1);
  for (std::size_t i = 0; i < n; ++i)
    pool.submit([arrived, n, deadline] {
      arrived->fetch_add(1);
      while (arrived->load() < n && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  while (arrived->load() < n && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return arrived->load();
}

void print_result(const Outcome& out) {
  std::printf("attempted %llu, errors %llu, wrong %llu, refused (kBusy) %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.errors),
              static_cast<unsigned long long>(out.wrong),
              static_cast<unsigned long long>(out.refused));
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_start|bulk_eval|serve_mix --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--quick]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Line-buffered even into a pipe: the JIT forks the host compiler, and a
  // child must not inherit (and re-flush) unwritten output.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (!next) {
      return usage();
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir") {
      cfg.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (cfg.work_dir.empty() || cfg.seconds <= 0) return usage();
  const std::filesystem::path base = cfg.work_dir;
  cfg.work_dir = (base / ("run-" + std::to_string(getpid()))).string();

  Outcome out;
  int status = 0;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    std::printf("perfbench %s: seed %llu, %.1f s, trace %d%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0,
                cfg.quick ? ", quick" : "");
    if (cfg.workload == "cold_start") {
      run_cold_start(cfg, out);
    } else if (cfg.workload == "bulk_eval") {
      run_bulk_eval(cfg, out);
    } else if (cfg.workload == "serve_mix") {
      run_serve_mix(cfg, out);
    } else {
      std::filesystem::remove_all(cfg.work_dir);
      return usage();
    }
    if (cfg.trace) {
      tracer::enable(true);
      run_layer_probes(cfg, out);
      tracer::enable(false);
      std::filesystem::create_directories(base / "traces");
      const auto path = base / "traces" /
                        ("trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".json");
      tracer::write_chrome_trace(path.string());
      std::printf("chrome trace: %s\n", path.string().c_str());
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 2;
  }
  std::error_code ignored;
  std::filesystem::remove_all(cfg.work_dir, ignored);
  if (status == 0) {
    const std::size_t workers = pp::util::global_pool().worker_count();
    const std::size_t responsive = responsive_pool_workers();
    std::printf("evaluation pool: %zu of %zu workers responsive\n", responsive, workers);
    print_result(out);
    status = out.correct() && out.failed() == 0 ? 0 : 1;
  }
  // Every workload object is gone by now, so nothing is left to release but
  // the global evaluation pool.  Skip its destructor: a worker can be parked
  // forever in the shard latch's notify after the batch it served returned
  // (the use-after-scope in BatchExecutor::run), and joining it would hang
  // the exit after the result is already out.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(status);
}
