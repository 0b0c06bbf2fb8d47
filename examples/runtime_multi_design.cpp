// Runtime multi-design serving: one fabric, several resident personalities,
// asynchronous jobs.
//
// The paper's array has no fixed function — "the personality of the fabric
// is a link to a reconfiguration bit stream" (§4).  pp::rt turns that into
// a serving model: compile designs once, make them resident on a Device,
// and submit batches; the device swaps personalities by partial
// reconfiguration (bitstream deltas) and batches same-design jobs to
// amortize the swaps.
#include <cstdio>
#include <utility>
#include <vector>

#include "map/netlist.h"
#include "platform/compiler.h"
#include "rt/device.h"
#include "util/rng.h"

int main() {
  using namespace pp;

  // 1. Compile two very different workloads.
  const map::Netlist adder_nl = map::make_ripple_adder(4);
  const map::Netlist parity_nl = map::make_parity(6);
  auto adder = platform::compile(adder_nl);
  auto parity = platform::compile(parity_nl);
  if (!adder.ok() || !parity.ok()) {
    std::printf("compile: %s\n", (!adder.ok() ? adder : parity)
                                     .status()
                                     .to_string()
                                     .c_str());
    return 1;
  }

  // 2. One device big enough for both; load makes them resident (identical
  //    designs would be deduped by content hash).
  const int rows = std::max(adder->fabric.rows(), parity->fabric.rows());
  const int cols = std::max(adder->fabric.cols(), parity->fabric.cols());
  auto device = rt::Device::create(rows, cols);
  if (!device.ok())
    return std::printf("%s\n", device.status().to_string().c_str()), 1;
  if (Status s = device->load("adder4", *adder); !s.ok())
    return std::printf("%s\n", s.to_string().c_str()), 1;
  if (Status s = device->load("parity6", *parity); !s.ok())
    return std::printf("%s\n", s.to_string().c_str()), 1;

  // 3. Submit interleaved async jobs; handles come back immediately.
  util::Rng rng(42);
  auto vectors = [&](std::size_t n, std::size_t width) {
    std::vector<platform::InputVector> v(n, platform::InputVector(width));
    for (auto& vec : v)
      for (std::size_t i = 0; i < width; ++i) vec[i] = rng.next_bool();
    return v;
  };
  struct Submitted {
    rt::Job job;
    const map::Netlist* netlist;
    std::vector<platform::InputVector> stimulus;
  };
  std::vector<Submitted> jobs;
  for (int round = 0; round < 3; ++round) {
    for (const auto& [name, netlist] :
         {std::pair{"adder4", &adder_nl}, {"parity6", &parity_nl}}) {
      auto stimulus = vectors(256, netlist->inputs().size());
      auto job = device->submit(name, stimulus);
      if (!job.ok())
        return std::printf("%s\n", job.status().to_string().c_str()), 1;
      jobs.push_back({*job, netlist, std::move(stimulus)});
    }
  }

  // 4. Collect results (wait() blocks; try_result() would poll).  The
  //    first call takes the results; a later one reports them taken.
  //    Every result must equal the source netlist's own evaluation.
  for (auto& [job, netlist, stimulus] : jobs) {
    auto result = job.wait();
    if (!result.ok())
      return std::printf("job %llu: %s\n",
                         static_cast<unsigned long long>(job.id()),
                         result.status().to_string().c_str()),
             1;
    std::size_t mismatches = 0;
    for (std::size_t v = 0; v < stimulus.size(); ++v)
      if ((*result)[v] != netlist->evaluate(stimulus[v])) ++mismatches;
    std::printf("job %llu (%s): %zu vectors evaluated, %zu mismatches\n",
                static_cast<unsigned long long>(job.id()),
                job.design().c_str(), result->size(), mismatches);
    if (mismatches != 0) return 1;
  }

  // 5. What did reconfiguration cost?  Deltas vs full bitstream rewrites.
  const auto stats = device->stats();
  std::printf(
      "\n%llu jobs, %llu personality swaps (%llu batched free riders)\n"
      "partial reconfiguration wrote %llu bytes; full rewrites would have "
      "written %llu (%.1f%%)\n",
      static_cast<unsigned long long>(stats.jobs_completed),
      static_cast<unsigned long long>(stats.activations),
      static_cast<unsigned long long>(stats.batched_jobs),
      static_cast<unsigned long long>(stats.delta_bytes),
      static_cast<unsigned long long>(stats.full_bytes),
      stats.full_bytes > 0
          ? 100.0 * static_cast<double>(stats.delta_bytes) /
                static_cast<double>(stats.full_bytes)
          : 0.0);
  return 0;
}
