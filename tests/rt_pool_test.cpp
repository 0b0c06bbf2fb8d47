// rt::DevicePool: pool-of-1 equivalence with a plain Device, affinity
// routing, hot-design replication, N-device correctness under concurrent
// submits, cancellation and destructor draining across devices, the
// registration contract (idempotency, rebind rejection, sequential
// designs), and the engine-counter roll-up from sessions to fleet.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/session.h"
#include "rt/device.h"
#include "rt/pool.h"
#include "rt/queue.h"
#include "util/rng.h"

namespace pp {
namespace {

using platform::BitVector;
using platform::InputVector;

platform::CompiledDesign compile_or_die(const map::Netlist& netlist) {
  auto design = platform::compile(netlist);
  EXPECT_TRUE(design.ok()) << design.status().to_string();
  return std::move(*design);
}

std::vector<InputVector> random_vectors(std::size_t count, std::size_t width,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<InputVector> vectors(count);
  for (auto& v : vectors) {
    v.resize(width);
    for (std::size_t i = 0; i < width; ++i) v[i] = rng.next_bool();
  }
  return vectors;
}

/// Serial single-thread reference through the synchronous Session path.
std::vector<BitVector> serial_reference(const platform::CompiledDesign& design,
                                        const std::vector<InputVector>& v) {
  auto session = platform::Session::load(design);
  EXPECT_TRUE(session.ok()) << session.status().to_string();
  auto out = session->run_vectors(v, {.max_threads = 1});
  EXPECT_TRUE(out.ok()) << out.status().to_string();
  return std::move(*out);
}

TEST(RtDevicePool, PoolOfOneMatchesAPlainDevice) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  const auto parity = compile_or_die(map::make_parity(5));
  const int rows = std::max(adder.fabric.rows(), parity.fabric.rows());
  const int cols = std::max(adder.fabric.cols(), parity.fabric.cols());

  auto pool = rt::DevicePool::create(1, rows, cols);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  auto device = rt::Device::create(rows, cols);
  ASSERT_TRUE(device.ok()) << device.status().to_string();
  ASSERT_TRUE(pool->register_design("adder", adder).ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());
  ASSERT_TRUE(device->load("adder", adder).ok());
  ASSERT_TRUE(device->load("parity", parity).ok());

  // The same interleaved stream through both paths, byte-identical results.
  for (int j = 0; j < 4; ++j) {
    const auto av = random_vectors(128, 7, 100 + j);
    const auto pv = random_vectors(128, 5, 200 + j);
    auto pool_a = pool->run_sync("adder", av);
    auto dev_a = device->run_sync("adder", av);
    auto pool_p = pool->run_sync("parity", pv);
    auto dev_p = device->run_sync("parity", pv);
    ASSERT_TRUE(pool_a.ok() && dev_a.ok() && pool_p.ok() && dev_p.ok());
    EXPECT_EQ(*pool_a, *dev_a);
    EXPECT_EQ(*pool_p, *dev_p);
  }
  const auto stats = pool->stats();
  EXPECT_EQ(stats.jobs_submitted, 8u);
  EXPECT_EQ(stats.jobs_per_device, (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(stats.replications, 0u);  // nowhere to replicate to
  EXPECT_EQ(stats.device.size(), 1u);
  EXPECT_EQ(stats.device[0].jobs_completed, 8u);
}

TEST(RtDevicePool, PoolJobsHandTheirResultsOverOnce) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  const auto vectors = random_vectors(1000, 7, 43);
  const auto expected = serial_reference(adder, vectors);
  // A plain pool hands out the device's own job; a supervised one (every
  // job shadow-verified) hands out an outer job the supervisor resolves
  // from the device job's results.
  rt::PoolOptions supervised;
  supervised.verify_sample_rate = 1;
  for (const rt::PoolOptions& options : {rt::PoolOptions{}, supervised}) {
    auto pool = rt::DevicePool::create(2, adder.fabric.rows(),
                                       adder.fabric.cols(), options);
    ASSERT_TRUE(pool.ok()) << pool.status().to_string();
    ASSERT_TRUE(pool->register_design("adder", adder).ok());
    auto job = pool->submit("adder", vectors);
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    rt::Job copy = *job;
    auto first = job->wait();
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    EXPECT_EQ(*first, expected);
    EXPECT_EQ(job->wait().status().code(), StatusCode::kFailedPrecondition);
    auto polled = copy.try_result();
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(polled->status().code(), StatusCode::kFailedPrecondition);

    auto sync = pool->run_sync("adder", vectors);
    ASSERT_TRUE(sync.ok()) << sync.status().to_string();
    EXPECT_EQ(*sync, expected);
    EXPECT_EQ(pool->stats().verify_mismatches, 0u);
  }
}

TEST(RtDevicePool, ConcurrentSubmitsAcrossDevicesMatchSerialReference) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  const auto parity = compile_or_die(map::make_parity(5));
  const auto mux = compile_or_die(map::make_mux4());
  int rows = 0, cols = 0;
  for (const auto* d : {&adder, &parity, &mux}) {
    rows = std::max(rows, d->fabric.rows());
    cols = std::max(cols, d->fabric.cols());
  }
  auto pool = rt::DevicePool::create(3, rows, cols);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  ASSERT_TRUE(pool->register_design("adder", adder).ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());
  ASSERT_TRUE(pool->register_design("mux", mux).ok());

  struct Stream {
    std::string name;
    std::size_t width;
    const platform::CompiledDesign* design;
  };
  const std::vector<Stream> streams = {
      {"adder", 7, &adder}, {"parity", 5, &parity}, {"mux", 6, &mux}};

  // 4 client threads x 6 jobs, rotating designs, all submitted
  // concurrently; every result must match the serial reference.
  constexpr int kClients = 4, kJobsPerClient = 6;
  std::vector<std::vector<rt::Job>> jobs(kClients);
  std::vector<std::vector<std::vector<BitVector>>> expected(kClients);
  std::vector<std::vector<std::vector<InputVector>>> inputs(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int j = 0; j < kJobsPerClient; ++j) {
      const Stream& s = streams[static_cast<std::size_t>(c + j) %
                                streams.size()];
      inputs[c].push_back(random_vectors(
          96, s.width, static_cast<std::uint64_t>(1000 + c * 100 + j)));
      expected[c].push_back(serial_reference(*s.design, inputs[c].back()));
    }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const Stream& s = streams[static_cast<std::size_t>(c + j) %
                                  streams.size()];
        auto job = pool->submit(s.name, inputs[c][j]);
        ASSERT_TRUE(job.ok()) << job.status().to_string();
        jobs[c].push_back(*job);
      }
    });
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c)
    for (int j = 0; j < kJobsPerClient; ++j) {
      auto result = jobs[c][j].wait();
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(*result, expected[c][j]) << "client " << c << " job " << j;
    }

  const auto stats = pool->stats();
  EXPECT_EQ(stats.jobs_submitted,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));
  // Round-robin homes spread the three designs over the three devices.
  std::uint64_t total = 0, completed = 0;
  for (const auto& n : stats.jobs_per_device) total += n;
  for (const auto& d : stats.device) completed += d.jobs_completed;
  EXPECT_EQ(total, stats.jobs_submitted);
  EXPECT_EQ(completed, stats.jobs_submitted);
  EXPECT_TRUE(std::all_of(stats.jobs_per_device.begin(),
                          stats.jobs_per_device.end(),
                          [](std::uint64_t n) { return n > 0; }));
  // The pool's kernel-pass rollup is exactly the per-device sum, and the
  // two-valued fleet workload produced compiled passes.
  std::uint64_t fast = 0, slow = 0;
  for (const auto& d : stats.device) {
    fast += d.fast_passes;
    slow += d.slow_passes;
  }
  EXPECT_EQ(stats.fast_passes, fast);
  EXPECT_EQ(stats.slow_passes, slow);
  EXPECT_GT(fast + slow, 0u);
}

TEST(RtDevicePool, HotDesignReplicationTriggers) {
  const auto parity = compile_or_die(map::make_parity(5));
  rt::PoolOptions options;
  options.replicate_depth = 1;   // congested as soon as one job is pending
  options.replicate_streak = 1;  // replicate on the first congested submit
  auto pool = rt::DevicePool::create(2, parity.fabric.rows(),
                                     parity.fabric.cols(), options);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  ASSERT_TRUE(pool->register_design("parity", parity).ok());
  EXPECT_EQ(pool->replicas("parity"), 1u);

  // A blocker occupies the home device for far longer than the submit
  // loop takes (the event engine is orders of magnitude slower per vector
  // than the compiled one), so the next submit deterministically observes
  // depth >= 1 on device 0 while device 1 sits idle — even on one core
  // where the dispatcher may preempt the submitter between submits.
  const platform::RunOptions slow{.max_threads = 1,
                                  .engine = platform::Engine::kEventDriven};
  std::vector<rt::Job> jobs;
  auto blocker = pool->submit("parity", random_vectors(8192, 5, 40), slow);
  ASSERT_TRUE(blocker.ok()) << blocker.status().to_string();
  jobs.push_back(*blocker);
  for (int j = 1; j < 6; ++j) {
    auto job = pool->submit("parity", random_vectors(256, 5,
                                                     static_cast<std::uint64_t>(
                                                         40 + j)));
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    jobs.push_back(*job);
  }
  pool->drain();
  for (auto& job : jobs) {
    auto result = job.wait();
    EXPECT_TRUE(result.ok()) << result.status().to_string();
  }

  const auto stats = pool->stats();
  EXPECT_EQ(stats.replications, 1u);  // capped by the fleet size
  EXPECT_EQ(pool->replicas("parity"), 2u);
  // Both devices actually served the hot design.
  EXPECT_TRUE(std::all_of(stats.jobs_per_device.begin(),
                          stats.jobs_per_device.end(),
                          [](std::uint64_t n) { return n > 0; }));
  EXPECT_TRUE(pool->device(0).resident("parity"));
  EXPECT_TRUE(pool->device(1).resident("parity"));
}

TEST(RtDevicePool, ReplicationRespectsMaxReplicas) {
  const auto parity = compile_or_die(map::make_parity(4));
  rt::PoolOptions options;
  options.replicate_depth = 1;
  options.replicate_streak = 1;
  options.max_replicas = 1;  // pinned: never replicate
  auto pool = rt::DevicePool::create(3, parity.fabric.rows(),
                                     parity.fabric.cols(), options);
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());
  for (int j = 0; j < 8; ++j) {
    auto job = pool->submit("parity", random_vectors(256, 4, 70 + j));
    ASSERT_TRUE(job.ok());
  }
  pool->drain();
  EXPECT_EQ(pool->stats().replications, 0u);
  EXPECT_EQ(pool->replicas("parity"), 1u);
}

TEST(RtDevicePool, AffinityKeepsColdDesignsPinned) {
  const auto adder = compile_or_die(map::make_ripple_adder(2));
  const auto parity = compile_or_die(map::make_parity(4));
  const int rows = std::max(adder.fabric.rows(), parity.fabric.rows());
  const int cols = std::max(adder.fabric.cols(), parity.fabric.cols());
  auto pool = rt::DevicePool::create(2, rows, cols);  // default thresholds
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->register_design("adder", adder).ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());

  // Sequential (drained) submits never congest, so each design stays on
  // its round-robin home and each device swaps personality exactly once.
  for (int j = 0; j < 5; ++j) {
    auto a = pool->run_sync("adder", random_vectors(32, 5, 300 + j));
    auto p = pool->run_sync("parity", random_vectors(32, 4, 400 + j));
    ASSERT_TRUE(a.ok() && p.ok());
  }
  const auto stats = pool->stats();
  EXPECT_EQ(stats.replications, 0u);
  EXPECT_EQ(stats.jobs_per_device, (std::vector<std::uint64_t>{5, 5}));
  for (const auto& d : stats.device) {
    EXPECT_EQ(d.activations, 1u);
    EXPECT_EQ(d.batched_jobs, 4u);
  }
  // After the first job per design, routing is pure active-affinity.
  EXPECT_EQ(stats.affinity_active, 8u);
  EXPECT_EQ(stats.affinity_resident, 2u);
}

TEST(RtDevicePool, CancelAndDestructorDrainAcrossDevices) {
  const auto parity = compile_or_die(map::make_parity(4));
  rt::PoolOptions options;
  options.replicate_depth = 1;
  options.replicate_streak = 1;
  std::vector<rt::Job> jobs;
  {
    auto pool = rt::DevicePool::create(3, parity.fabric.rows(),
                                       parity.fabric.cols(), options);
    ASSERT_TRUE(pool.ok());
    ASSERT_TRUE(pool->register_design("parity", parity).ok());
    for (int j = 0; j < 12; ++j) {
      auto job = pool->submit("parity", random_vectors(512, 4, 500 + j));
      ASSERT_TRUE(job.ok());
      jobs.push_back(*job);
    }
    // Cancel a few while the fleet is busy; cancel only wins while queued.
    (void)jobs[3].cancel();
    (void)jobs[7].cancel();
    (void)jobs[11].cancel();
    // Pool destroyed with jobs still queued on several devices.
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_TRUE(jobs[j].done()) << "job " << j;
    auto result = jobs[j].wait();  // must not block
    if (result.ok()) {
      const auto vectors = random_vectors(512, 4, 500 + j);
      EXPECT_EQ(*result, serial_reference(parity, vectors)) << "job " << j;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    }
  }
}

TEST(RtDevicePool, ValidatesLikeADevice) {
  const auto parity = compile_or_die(map::make_parity(4));
  const auto counter = compile_or_die(map::make_counter(2));
  const int rows = std::max(parity.fabric.rows(), counter.fabric.rows());
  const int cols = std::max(parity.fabric.cols(), counter.fabric.cols());

  EXPECT_EQ(rt::DevicePool::create(0, rows, cols).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rt::DevicePool::create(2, 0, 4).status().code(),
            StatusCode::kInvalidArgument);

  auto pool = rt::DevicePool::create(2, rows, cols);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->device_count(), 2u);
  EXPECT_EQ(pool->rows(), rows);
  EXPECT_EQ(pool->cols(), cols);

  EXPECT_EQ(pool->register_design("", parity).code(),
            StatusCode::kInvalidArgument);
  const auto huge = compile_or_die(map::make_ripple_adder(8));
  EXPECT_EQ(pool->register_design("huge", huge).code(),
            StatusCode::kResourceExhausted);

  ASSERT_TRUE(pool->register_design("parity", parity).ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());  // idempotent
  EXPECT_EQ(pool->register_design("parity", counter).code(),
            StatusCode::kFailedPrecondition);  // never rebind a name
  EXPECT_TRUE(pool->resident("parity"));
  EXPECT_FALSE(pool->resident("ghost"));
  EXPECT_EQ(pool->replicas("ghost"), 0u);

  EXPECT_EQ(pool->submit("ghost", random_vectors(4, 4, 1)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pool->submit("parity", random_vectors(4, 3, 1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool->open_session("ghost").status().code(),
            StatusCode::kNotFound);

  // Sequential designs register (open_session serves them) but reject jobs.
  ASSERT_TRUE(pool->register_design("counter", counter).ok());
  EXPECT_EQ(pool->submit("counter", random_vectors(4, 1, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  auto session = pool->open_session("counter");
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  EXPECT_TRUE(session->sequential());
  EXPECT_EQ(pool->designs(), (std::vector<std::string>{"counter", "parity"}));

  // Rejected submits must leave the scheduler state untouched.
  EXPECT_EQ(pool->stats().jobs_submitted, 0u);
  EXPECT_EQ(pool->stats().replications, 0u);
}

TEST(RtDevicePool, ClockedSubmissionsRouteAndRollUpCycleStats) {
  const auto netlist = map::make_counter(2);
  const auto counter = compile_or_die(netlist);
  auto pool = rt::DevicePool::create(2, counter.fabric.rows(),
                                     counter.fabric.cols());
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->register_design("counter", counter).ok());

  // Ragged batches fail fast, before any scheduling side effect.
  EXPECT_EQ(pool->submit("counter", random_vectors(3, 1, 1),
                         rt::SubmitOptions{.cycles = 2})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool->stats().jobs_submitted, 0u);

  // Two independent streams of four cycles, verified against the netlist.
  const std::size_t streams = 2, cycles = 4;
  const auto stimulus = random_vectors(streams * cycles, 1, 7);
  auto job = pool->submit("counter", stimulus,
                          rt::SubmitOptions{.cycles = cycles});
  ASSERT_TRUE(job.ok()) << job.status().to_string();
  auto results = job->wait();
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  for (std::size_t s = 0; s < streams; ++s) {
    auto state = netlist.make_state();
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto expected = netlist.step({stimulus[s * cycles + c][0]}, state);
      const auto& got = (*results)[s * cycles + c];
      EXPECT_EQ(std::vector<bool>(got.begin(), got.end()), expected)
          << "stream " << s << " cycle " << c;
    }
  }

  // The fleet roll-up carries the cycle counters from whichever device ran
  // the job: one pass group of 4 cycles, 2 register commits per edge.
  const rt::PoolStats stats = pool->stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.cycles_run, cycles);
  EXPECT_EQ(stats.state_commits, 2 * cycles);
  EXPECT_EQ(stats.fast_cycle_passes, cycles);
}

TEST(RtDevicePool, ConcurrentRegistrationOfOneNameIsAtomic) {
  const auto parity = compile_or_die(map::make_parity(4));
  const auto adder = compile_or_die(map::make_ripple_adder(2));
  const int rows = std::max(parity.fabric.rows(), adder.fabric.rows());
  const int cols = std::max(parity.fabric.cols(), adder.fabric.cols());
  for (int round = 0; round < 5; ++round) {
    auto pool = rt::DevicePool::create(2, rows, cols);
    ASSERT_TRUE(pool.ok());
    // Two threads race to bind "x" to divergent content; the in-flight
    // reservation must serialize them so exactly one wins and the loser's
    // content never becomes resident anywhere.
    Status s1, s2;
    std::thread t1([&] { s1 = pool->register_design("x", parity); });
    std::thread t2([&] { s2 = pool->register_design("x", adder); });
    t1.join();
    t2.join();
    ASSERT_NE(s1.ok(), s2.ok()) << "exactly one registration must win";
    EXPECT_EQ((s1.ok() ? s2 : s1).code(), StatusCode::kFailedPrecondition);
    int resident_devices = 0;
    for (std::size_t d = 0; d < pool->device_count(); ++d)
      resident_devices += pool->device(d).resident("x") ? 1 : 0;
    EXPECT_EQ(resident_devices, 1) << "loser must leave no stray residency";
    EXPECT_EQ(pool->replicas("x"), 1u);
    // The surviving binding serves the winner's function.
    const auto& winner = s1.ok() ? parity : adder;
    const std::size_t width = winner.inputs.size();
    const auto vectors = random_vectors(64, width, 900 + round);
    auto out = pool->run_sync("x", vectors);
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    EXPECT_EQ(*out, serial_reference(winner, vectors));
  }
}

TEST(RtDevicePool, MoveTransfersTheFleet) {
  const auto parity = compile_or_die(map::make_parity(4));
  auto a = rt::DevicePool::create(2, parity.fabric.rows(),
                                  parity.fabric.cols());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->register_design("parity", parity).ok());
  auto job = a->submit("parity", random_vectors(256, 4, 9));
  ASSERT_TRUE(job.ok());
  rt::DevicePool moved = std::move(*a);
  auto result = job->wait();
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  auto after = moved.run_sync("parity", random_vectors(16, 4, 10));
  EXPECT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_EQ(moved.device_count(), 2u);
}

TEST(RtJobQueue, PendingCountsPerDesign) {
  rt::JobQueue queue;
  const auto make = [](std::uint64_t id, std::string design) {
    return std::make_shared<rt::detail::JobState>(
        id, std::move(design), std::vector<InputVector>{},
        rt::SubmitOptions{});
  };
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.pending_for("a"), 0u);
  queue.push(make(1, "a"));
  queue.push(make(2, "b"));
  queue.push(make(3, "a"));
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.pending_for("a"), 2u);
  EXPECT_EQ(queue.pending_for("b"), 1u);
  EXPECT_EQ(queue.pending_for("ghost"), 0u);
  EXPECT_EQ(queue.pop("a")->id, 1u);
  EXPECT_EQ(queue.pending_for("a"), 1u);
  EXPECT_EQ(queue.pending(), 2u);
}

TEST(RtDevice, IntrospectionHooks) {
  const auto parity = compile_or_die(map::make_parity(4));
  const auto adder = compile_or_die(map::make_ripple_adder(2));
  const int rows = std::max(parity.fabric.rows(), adder.fabric.rows());
  const int cols = std::max(parity.fabric.cols(), adder.fabric.cols());
  auto device = rt::Device::create(rows, cols);
  ASSERT_TRUE(device.ok());
  EXPECT_TRUE(device->idle());
  EXPECT_EQ(device->queue_depth(), 0u);
  EXPECT_TRUE(device->active_matches(""));  // blank power-on personality
  EXPECT_FALSE(device->active_matches("parity"));

  ASSERT_TRUE(device->load("parity", parity).ok());
  ASSERT_TRUE(device->load("parity2", parity).ok());  // alias by content
  ASSERT_TRUE(device->load("adder", adder).ok());
  ASSERT_TRUE(device->activate("parity").ok());
  EXPECT_TRUE(device->active_matches("parity"));
  // Aliased names are the same personality, and the blank probe is off.
  EXPECT_TRUE(device->active_matches("parity2"));
  EXPECT_FALSE(device->active_matches("adder"));
  EXPECT_FALSE(device->active_matches(""));
  EXPECT_FALSE(device->active_matches("ghost"));

  // vectors_run and kernel-pass accounting ride along with completed jobs
  // (two-valued stimulus on a combinational design: compiled passes only).
  ASSERT_TRUE(device->run_sync("parity", random_vectors(96, 4, 1)).ok());
  EXPECT_EQ(device->stats().vectors_run, 96u);
  EXPECT_GT(device->stats().fast_passes + device->stats().slow_passes, 0u);
  device->drain();  // retire the run_sync job so the depth below is exact

  // A long event-engine job pins the dispatcher, so the job submitted
  // behind it is observably queued, per design and in total.
  const platform::RunOptions slow{.max_threads = 1,
                                  .engine = platform::Engine::kEventDriven};
  auto blocker = device->submit("parity", random_vectors(8192, 4, 2), slow);
  ASSERT_TRUE(blocker.ok());
  auto waiting = device->submit("parity", random_vectors(16, 4, 3));
  ASSERT_TRUE(waiting.ok());
  EXPECT_EQ(device->queue_depth(), 2u);  // neither job can have retired yet
  // 1 when the dispatcher already popped the blocker, 2 when not yet.
  EXPECT_GE(device->queued("parity"), 1u);
  EXPECT_LE(device->queued("parity"), 2u);
  EXPECT_EQ(device->queued("adder"), 0u);
  EXPECT_FALSE(device->idle());

  // drain() (not just the jobs' own waits) is the idle barrier: a finished
  // job counts toward queue_depth until the dispatcher retires it.
  device->drain();
  EXPECT_TRUE(device->idle());
  EXPECT_EQ(device->queue_depth(), 0u);
  EXPECT_EQ(device->queued("parity"), 0u);
}

TEST(RtDevicePool, DrainRejectsSubmitsThatArriveWhileDraining) {
  const auto parity = compile_or_die(map::make_parity(5));
  auto pool =
      rt::DevicePool::create(1, parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());

  // Wedge the device so drain() stays blocked long enough to probe: the
  // scripted timeout holds the in-flight job for 300ms.
  rt::FaultPlan plan;
  plan.events.push_back({.at_job = 1, .kind = rt::FaultKind::kTimeout});
  plan.timeout_hold = std::chrono::milliseconds(300);
  pool->install_fault_plan(0, plan);
  auto wedged = pool->submit("parity", random_vectors(16, 5, 40));
  ASSERT_TRUE(wedged.ok());

  std::thread drainer([&] { pool->drain(); });
  // Submits arriving after the drain started must be refused upfront, not
  // queued behind the barrier.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto refused = pool->submit("parity", random_vectors(16, 5, 41));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  drainer.join();

  // The barrier lifted: submits are accepted again and complete.
  auto after = pool->run_sync("parity", random_vectors(16, 5, 42));
  EXPECT_TRUE(after.ok()) << after.status().to_string();
  // The wedged job's injected failure reached its caller (no resilience
  // configured, so the raw device status passes through).
  auto first = wedged->wait();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
}

TEST(RtDevicePool, PoolStatsRollUpDeviceFailuresDistinctFromExpiries) {
  const auto parity = compile_or_die(map::make_parity(5));
  auto pool =
      rt::DevicePool::create(2, parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->register_design("parity", parity).ok());  // home: 0

  rt::FaultPlan plan;
  plan.events.push_back({.at_job = 2, .kind = rt::FaultKind::kActivationCrc});
  pool->install_fault_plan(0, plan);

  const auto vectors = random_vectors(16, 5, 43);
  ASSERT_TRUE(pool->run_sync("parity", vectors).ok());
  ASSERT_FALSE(pool->run_sync("parity", vectors).ok());  // injected failure
  rt::SubmitOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ASSERT_FALSE(pool->run_sync("parity", vectors, expired).ok());

  // Failures, expiries, and completions are distinct fleet rollups, and
  // each matches the sum of its per-device counters.
  const auto stats = pool->stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_expired, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_failed,
            stats.device[0].jobs_failed + stats.device[1].jobs_failed);
  EXPECT_EQ(stats.jobs_expired,
            stats.device[0].jobs_expired + stats.device[1].jobs_expired);
}

/// The nine engine counters, named for failure messages.  Listed here
/// rather than read from sim::kKernelStatsFields, so the roll-up checks
/// below hold the library's own field list to account.
constexpr std::pair<const char*, std::uint64_t sim::KernelStats::*>
    kEngineCounters[] = {
        {"fast_passes", &sim::KernelStats::fast_passes},
        {"slow_passes", &sim::KernelStats::slow_passes},
        {"cycles_run", &sim::KernelStats::cycles_run},
        {"state_commits", &sim::KernelStats::state_commits},
        {"fast_cycle_passes", &sim::KernelStats::fast_cycle_passes},
        {"jit_passes", &sim::KernelStats::jit_passes},
        {"jit_compiles", &sim::KernelStats::jit_compiles},
        {"jit_cache_hits", &sim::KernelStats::jit_cache_hits},
        {"jit_fallbacks", &sim::KernelStats::jit_fallbacks},
};

TEST(RtDevicePool, PoolStatsSumEveryEngineCounterOverDevices) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() /
                         ("pp-rt-pool-jit-" + std::to_string(::getpid()));
  fs::remove_all(cache);
  ::setenv("PP_JIT_CACHE", cache.c_str(), 1);
  {
    const auto parity = compile_or_die(map::make_parity(5));
    const auto counter = compile_or_die(map::make_counter(2));
    rt::PoolOptions options;
    options.device.jit = true;
    auto pool = rt::DevicePool::create(
        2, std::max(parity.fabric.rows(), counter.fabric.rows()),
        std::max(parity.fabric.cols(), counter.fabric.cols()), options);
    ASSERT_TRUE(pool.ok()) << pool.status().to_string();
    ASSERT_TRUE(pool->register_design("parity", parity).ok());
    ASSERT_TRUE(pool->register_design("counter", counter).ok());

    ASSERT_TRUE(pool->run_sync("parity", random_vectors(96, 5, 61)).ok());
    ASSERT_TRUE(pool->run_sync("counter", random_vectors(2 * 4, 1, 62),
                               rt::SubmitOptions{.cycles = 4})
                    .ok());
    // Without a host compiler the forced JIT job fails; the interpreter
    // counters must still add up.
    rt::SubmitOptions forced;
    forced.run.engine = platform::Engine::kJit;
    const bool jit_ran =
        pool->run_sync("parity", random_vectors(96, 5, 63), forced).ok();

    const rt::PoolStats stats = pool->stats();
    for (const auto& [name, field] : kEngineCounters) {
      std::uint64_t sum = 0;
      for (const rt::DeviceStats& d : stats.device) sum += d.*field;
      EXPECT_EQ(stats.*field, sum) << name;
    }
    EXPECT_GT(stats.fast_passes, 0u);
    EXPECT_GT(stats.cycles_run, 0u);
    EXPECT_GT(stats.state_commits, 0u);
    EXPECT_GT(stats.fast_cycle_passes, 0u);
    if (jit_ran) {
      EXPECT_GT(stats.jit_passes, 0u);
      EXPECT_GT(stats.jit_compiles + stats.jit_cache_hits, 0u);
    }
  }
  fs::remove_all(cache);
}

TEST(RtDevice, DeviceStatsMatchSessionsRunningTheSameBatches) {
  const auto parity = compile_or_die(map::make_parity(5));
  const auto counter = compile_or_die(map::make_counter(2));
  auto device =
      rt::Device::create(std::max(parity.fabric.rows(), counter.fabric.rows()),
                         std::max(parity.fabric.cols(), counter.fabric.cols()));
  ASSERT_TRUE(device.ok()) << device.status().to_string();
  ASSERT_TRUE(device->load("parity", parity).ok());
  ASSERT_TRUE(device->load("counter", counter).ok());
  auto combinational = device->open_session("parity");
  auto clocked = device->open_session("counter");
  ASSERT_TRUE(combinational.ok() && clocked.ok());

  const auto vectors = random_vectors(96, 5, 71);
  const auto streams = random_vectors(2 * 4, 1, 72);
  ASSERT_TRUE(device->run_sync("parity", vectors).ok());
  ASSERT_TRUE(
      device->run_sync("counter", streams, rt::SubmitOptions{.cycles = 4})
          .ok());
  ASSERT_TRUE(combinational->run_vectors(vectors).ok());
  ASSERT_TRUE(clocked->run_cycles(streams, 4).ok());

  // The device folds each job's last_run_stats(); the sessions report
  // their executors' lifetime totals.  Both views must agree.
  const rt::DeviceStats dev = device->stats();
  const platform::ExecutorStats a = combinational->executor_stats();
  const platform::ExecutorStats b = clocked->executor_stats();
  for (const auto& [name, field] : kEngineCounters)
    EXPECT_EQ(dev.*field, a.*field + b.*field) << name;
  EXPECT_EQ(dev.vectors_run, a.vectors_run + b.vectors_run);
  EXPECT_GT(dev.fast_passes, 0u);
  EXPECT_GT(dev.fast_cycle_passes, 0u);
}

}  // namespace
}  // namespace pp
