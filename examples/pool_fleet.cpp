// Fleet serving: a pool of devices behind one submit surface.
//
// One rt::Device already serves many personalities by partial
// reconfiguration; a DevicePool serves them with a *fleet* — jobs route to
// the device already wearing their personality (reconfiguration is the
// expensive event), and designs that run hot are replicated onto
// additional devices.  This example serves three designs from four
// devices and prints the pool's scheduling stats.
#include <cstdio>
#include <vector>

#include "map/netlist.h"
#include "platform/compiler.h"
#include "rt/pool.h"
#include "util/rng.h"

int main() {
  using namespace pp;

  // 1. Compile the mixed workload: three designs with different shapes.
  const map::Netlist adder_nl = map::make_ripple_adder(8);
  const map::Netlist parity_nl = map::make_parity(10);
  const map::Netlist mux_nl = map::make_mux4();
  auto adder = platform::compile(adder_nl);
  auto parity = platform::compile(parity_nl);
  auto mux = platform::compile(mux_nl);
  if (!adder.ok() || !parity.ok() || !mux.ok())
    return std::printf("compile failed\n"), 1;

  // 2. A pool of four identical devices, sized to the largest design; the
  //    designs are registered once and land on round-robin home devices.
  int rows = 0, cols = 0;
  for (const auto* d : {&*adder, &*parity, &*mux}) {
    rows = std::max(rows, d->fabric.rows());
    cols = std::max(cols, d->fabric.cols());
  }
  auto pool = rt::DevicePool::create(4, rows, cols);
  if (!pool.ok())
    return std::printf("%s\n", pool.status().to_string().c_str()), 1;
  for (const auto& [name, design] :
       {std::pair{"adder8", &*adder}, {"parity10", &*parity},
        {"mux4", &*mux}}) {
    if (Status s = pool->register_design(name, *design); !s.ok())
      return std::printf("%s\n", s.to_string().c_str()), 1;
  }

  // 3. Submit an interleaved stream of async jobs against all three
  //    designs; the pool routes each to the device with its personality.
  util::Rng rng(7);
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
  for (int round = 0; round < 8; ++round) {
    for (const auto& [name, netlist] :
         {std::pair{"adder8", &adder_nl}, {"parity10", &parity_nl},
          {"mux4", &mux_nl}}) {
      auto stimulus = vectors(256, netlist->inputs().size());
      auto job = pool->submit(name, stimulus);
      if (!job.ok())
        return std::printf("%s\n", job.status().to_string().c_str()), 1;
      jobs.push_back({*job, netlist, std::move(stimulus)});
    }
  }
  // Every result must equal the source netlist's own evaluation.
  std::size_t mismatches = 0;
  for (auto& [job, netlist, stimulus] : jobs) {
    auto result = job.wait();
    if (!result.ok())
      return std::printf("job %llu: %s\n",
                         static_cast<unsigned long long>(job.id()),
                         result.status().to_string().c_str()),
             1;
    for (std::size_t v = 0; v < stimulus.size(); ++v)
      if ((*result)[v] != netlist->evaluate(stimulus[v])) ++mismatches;
  }
  if (mismatches != 0)
    return std::printf("MISMATCH: %zu result vectors differ from "
                       "Netlist::evaluate\n",
                       mismatches),
           1;

  // 4. How did the fleet schedule?  Affinity hits avoid reconfiguration;
  //    replications spread hot designs across devices.
  const auto stats = pool->stats();
  std::printf("%llu jobs over %zu devices: %llu routed by active-design "
              "affinity, %llu replications\n",
              static_cast<unsigned long long>(stats.jobs_submitted),
              pool->device_count(),
              static_cast<unsigned long long>(stats.affinity_active),
              static_cast<unsigned long long>(stats.replications));
  for (std::size_t i = 0; i < pool->device_count(); ++i) {
    const auto& d = stats.device[i];
    std::printf("  device %zu: %llu jobs, %llu swaps, %llu batched, "
                "%llu vectors\n",
                i, static_cast<unsigned long long>(stats.jobs_per_device[i]),
                static_cast<unsigned long long>(d.activations),
                static_cast<unsigned long long>(d.batched_jobs),
                static_cast<unsigned long long>(d.vectors_run));
  }
  return 0;
}
