// The three workloads and the per-layer probes (see perfbench/README.md).
#pragma once

#include "common.h"

namespace perfbench {

/// serve_mix's batch size.  One 64-lane plane word is one executor granule,
/// so each job runs serially on its device's dispatcher.  A wider batch is
/// split into shards whose completion latch notifies after the waiter may
/// have returned (the use-after-scope in BatchExecutor::run); over the
/// ~10^5 tiny jobs of a serve_mix run on a contended host that parked pool
/// threads and hung a run in about one in twenty.
inline constexpr std::size_t kServeMixVectors = 64;

/// When the process started: the first set-up repetition is timed from here.
extern const Clock::time_point kProcessStart;

/// Times `reps` set-ups (one with --quick); returns the median in seconds.
/// The first repetition counts from process start; `setup` builds the
/// workload state (the last repetition's state is what the window runs on).
double timed_setups(const Config& cfg, int reps, const std::function<void()>& setup);

/// Each returns the end-to-end metrics (untraced run) or, with cfg.trace,
/// the per-layer metrics plus the self-time budget of its window.
void run_cold_start(const Config& cfg, Outcome& out);
void run_bulk_eval(const Config& cfg, Outcome& out);
void run_serve_mix(const Config& cfg, Outcome& out);

/// The per-layer probes of all three workloads, each a direct timed call
/// into one layer's public API on its workload's designs and inputs.
void run_layer_probes(const Config& cfg, Outcome& out);

/// Prints a timing sample's median and its highest percentile with at
/// least ten samples beyond it, with the sample count.
void print_timing(const std::string& what, const std::vector<double>& ms);

}  // namespace perfbench
