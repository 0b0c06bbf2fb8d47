// pp::rt device runtime: residency and content dedupe, partial
// reconfiguration (differential against full bitstream loads), the async
// job queue (concurrent submission, batching, cancel, the one-time hand-over
// of results), and the Session escape hatch for sequential designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/bitstream.h"
#include "map/netlist.h"
#include "platform/compiler.h"
#include "platform/session.h"
#include "rt/device.h"
#include "rt/fault.h"
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

platform::CompiledDesign compile_or_die_with(const map::Netlist& netlist,
                                             const core::FabricDelays& delays) {
  platform::CompileOptions options;
  options.delays = delays;
  auto design = platform::compile(netlist, options);
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

TEST(RtDevice, ActivateViaDeltaIsByteIdenticalToFullLoad) {
  const auto adder = compile_or_die(map::make_ripple_adder(2));
  const auto mux = compile_or_die(map::make_mux4());
  const int rows = std::max(adder.fabric.rows(), mux.fabric.rows());
  const int cols = std::max(adder.fabric.cols(), mux.fabric.cols());
  auto device = rt::Device::create(rows, cols);
  ASSERT_TRUE(device.ok()) << device.status().to_string();
  ASSERT_TRUE(device->load("adder", adder).ok());
  ASSERT_TRUE(device->load("mux", mux).ok());
  EXPECT_EQ(device->active(), "");

  // Each activation must land the exact personality a full bitstream load
  // would have written (re-encoded byte compare), even after swapping back
  // and forth.
  for (const char* name : {"adder", "mux", "adder", "mux"}) {
    ASSERT_TRUE(device->activate(name).ok());
    EXPECT_EQ(device->active(), name);
    const auto& design = std::string_view(name) == "adder" ? adder : mux;
    auto padded = platform::pad_to(design, rows, cols);
    ASSERT_TRUE(padded.ok());
    EXPECT_EQ(core::encode_fabric(device->personality()), padded->bitstream)
        << "personality '" << name << "' diverged from a full load";
  }

  const auto stats = device->stats();
  EXPECT_EQ(stats.activations, 4u);
  EXPECT_GT(stats.delta_bytes, 0u);
  // Partial reconfiguration must beat rewriting the full bitstream.
  EXPECT_LT(stats.delta_bytes, stats.full_bytes);

  // Re-activating the active design is a counted no-op.
  ASSERT_TRUE(device->activate("mux").ok());
  EXPECT_EQ(device->stats().activations, 4u);
  EXPECT_EQ(device->stats().activation_skips, 1u);
}

TEST(RtDevice, ConcurrentJobsOnDifferentDesignsMatchSerial) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  const auto parity = compile_or_die(map::make_parity(5));
  const int rows = std::max(adder.fabric.rows(), parity.fabric.rows());
  const int cols = std::max(adder.fabric.cols(), parity.fabric.cols());
  auto device = rt::Device::create(rows, cols);
  ASSERT_TRUE(device.ok()) << device.status().to_string();
  ASSERT_TRUE(device->load("adder", adder).ok());
  ASSERT_TRUE(device->load("parity", parity).ok());

  const auto adder_vectors = random_vectors(300, 7, 101);
  const auto parity_vectors = random_vectors(300, 5, 202);
  const auto adder_expected = serial_reference(adder, adder_vectors);
  const auto parity_expected = serial_reference(parity, parity_vectors);

  // Submit from two client threads at once: both jobs must complete with
  // results identical to the serial reference.
  rt::Job adder_job, parity_job;
  std::thread t1([&] {
    auto job = device->submit("adder", adder_vectors);
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    adder_job = *job;
  });
  std::thread t2([&] {
    auto job = device->submit("parity", parity_vectors);
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    parity_job = *job;
  });
  t1.join();
  t2.join();

  auto adder_result = adder_job.wait();
  auto parity_result = parity_job.wait();
  ASSERT_TRUE(adder_result.ok()) << adder_result.status().to_string();
  ASSERT_TRUE(parity_result.ok()) << parity_result.status().to_string();
  EXPECT_EQ(*adder_result, adder_expected);
  EXPECT_EQ(*parity_result, parity_expected);
  EXPECT_TRUE(adder_job.done());
  EXPECT_TRUE(parity_job.done());

  const auto stats = device->stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(RtDevice, SameDesignJobsBatchWithoutReconfiguration) {
  const auto parity = compile_or_die(map::make_parity(4));
  auto device =
      rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("parity", parity).ok());

  std::vector<rt::Job> jobs;
  for (int j = 0; j < 4; ++j) {
    auto job = device->submit("parity", random_vectors(128, 4, 400 + j));
    ASSERT_TRUE(job.ok()) << job.status().to_string();
    jobs.push_back(*job);
  }
  device->drain();
  for (auto& job : jobs) {
    ASSERT_TRUE(job.done());
    EXPECT_TRUE(job.try_result().has_value());
  }
  const auto stats = device->stats();
  EXPECT_EQ(stats.jobs_completed, 4u);
  // One personality swap for the first job, the rest batch onto it.
  EXPECT_EQ(stats.activations, 1u);
  EXPECT_EQ(stats.batched_jobs, 3u);
}

TEST(RtDevice, LoadDedupesIdenticalDesignsByContentHash) {
  const auto mux_a = compile_or_die(map::make_mux4());
  const auto mux_b = compile_or_die(map::make_mux4());
  EXPECT_NE(mux_a.content_hash, 0u);
  EXPECT_EQ(mux_a.content_hash, mux_b.content_hash);

  const auto adder = compile_or_die(map::make_ripple_adder(2));
  const int rows = std::max(mux_a.fabric.rows(), adder.fabric.rows());
  const int cols = std::max(mux_a.fabric.cols(), adder.fabric.cols());
  auto device = rt::Device::create(rows, cols);
  ASSERT_TRUE(device.ok());

  ASSERT_TRUE(device->load("m1", mux_a).ok());
  ASSERT_TRUE(device->load("m2", mux_b).ok());   // aliased, not rebuilt
  ASSERT_TRUE(device->load("m1", mux_b).ok());   // idempotent re-load
  ASSERT_TRUE(device->load("add", adder).ok());
  EXPECT_EQ(device->stats().designs_loaded, 2u);
  EXPECT_EQ(device->stats().dedup_hits, 2u);

  // A name can never be rebound to different content.
  EXPECT_EQ(device->load("m1", adder).code(), StatusCode::kFailedPrecondition);

  // Aliases are first-class: submitting under either name works and agrees.
  const auto vectors = random_vectors(64, 6, 77);  // mux4: 4 data + 2 select
  auto r1 = device->run_sync("m1", vectors);
  auto r2 = device->run_sync("m2", vectors);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);

  const auto names = device->designs();
  EXPECT_EQ(names, (std::vector<std::string>{"add", "m1", "m2"}));
  EXPECT_TRUE(device->resident("m2"));
  EXPECT_FALSE(device->resident("nope"));
}

TEST(RtDevice, SubmitValidatesDesignAndVectors) {
  const auto parity = compile_or_die(map::make_parity(4));
  auto device =
      rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("parity", parity).ok());

  EXPECT_EQ(device->submit("ghost", random_vectors(4, 4, 1)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(device->activate("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(device->open_session("ghost").status().code(),
            StatusCode::kNotFound);
  // Wrong vector width fails fast, before queueing.
  EXPECT_EQ(device->submit("parity", random_vectors(4, 3, 1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(device->stats().jobs_submitted, 0u);
}

TEST(RtDevice, SequentialDesignsRejectJobsButOpenSessions) {
  const auto netlist = map::make_counter(2);
  const auto counter = compile_or_die(netlist);
  auto device =
      rt::Device::create(counter.fabric.rows(), counter.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("counter", counter).ok());

  EXPECT_EQ(device->submit("counter", random_vectors(4, 0, 1)).status().code(),
            StatusCode::kFailedPrecondition);

  auto session = device->open_session("counter");
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(session->sequential());
  // The fabric counter tracks the behavioural netlist cycle for cycle
  // (count while enabled, hold while not).
  auto state = netlist.make_state();
  const bool enables[] = {true, true, false, true, true, true};
  for (const bool en : enables) {
    auto out = session->step({en});
    ASSERT_TRUE(out.ok()) << out.status().to_string();
    const auto expected = netlist.step({en}, state);
    EXPECT_EQ(std::vector<bool>(out->begin(), out->end()), expected)
        << "enable " << en;
  }
}

TEST(RtDevice, ClockedJobsRunStreamsThroughRunCycles) {
  const auto netlist = map::make_counter(2);
  const auto counter = compile_or_die(netlist);
  auto device =
      rt::Device::create(counter.fabric.rows(), counter.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("counter", counter).ok());

  // A batch that does not divide into whole streams fails fast.
  EXPECT_EQ(device
                ->submit("counter", random_vectors(5, 1, 1),
                         rt::SubmitOptions{.cycles = 2})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Four independent streams of six cycles, random enables, stream-major;
  // each must match the behavioural netlist stepped from reset.
  const std::size_t streams = 4, cycles = 6;
  const auto stimulus = random_vectors(streams * cycles, 1, 42);
  auto results = device->run_sync("counter", stimulus,
                                  rt::SubmitOptions{.cycles = cycles});
  ASSERT_TRUE(results.ok()) << results.status().to_string();
  ASSERT_EQ(results->size(), stimulus.size());
  for (std::size_t s = 0; s < streams; ++s) {
    auto state = netlist.make_state();
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto expected = netlist.step({stimulus[s * cycles + c][0]}, state);
      const BitVector& got = (*results)[s * cycles + c];
      EXPECT_EQ(std::vector<bool>(got.begin(), got.end()), expected)
          << "stream " << s << " cycle " << c;
    }
  }

  // Cycle accounting reaches the device roll-up: one compiled pass group
  // (4 streams fit one 64-lane word) of 6 cycles, 2 registers per edge.
  const rt::DeviceStats stats = device->stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.vectors_run, stimulus.size());
  EXPECT_EQ(stats.cycles_run, cycles);
  EXPECT_EQ(stats.state_commits, 2 * cycles);
  EXPECT_EQ(stats.fast_cycle_passes, cycles);
}

TEST(RtDevice, CancelWinsOnlyBeforeExecution) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  auto device = rt::Device::create(adder.fabric.rows(), adder.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("adder", adder).ok());

  // Keep the dispatcher busy with a large job, then cancel a queued one.
  auto big = device->submit("adder", random_vectors(2048, 7, 9));
  ASSERT_TRUE(big.ok());
  auto victim = device->submit("adder", random_vectors(2048, 7, 10));
  ASSERT_TRUE(victim.ok());
  const bool canceled = victim->cancel();
  device->drain();

  auto big_result = big->wait();
  ASSERT_TRUE(big_result.ok()) << big_result.status().to_string();
  auto victim_result = victim->wait();
  if (canceled) {
    // Withdrawn before the dispatcher claimed it: reported as such, and a
    // second cancel is a no-op.
    EXPECT_EQ(victim_result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(victim->cancel());
    EXPECT_EQ(device->stats().jobs_canceled, 1u);
    EXPECT_EQ(device->stats().jobs_completed, 1u);
  } else {
    // The dispatcher won the race: the job ran to completion normally.
    EXPECT_TRUE(victim_result.ok());
    EXPECT_EQ(device->stats().jobs_completed, 2u);
  }
}

TEST(RtDevice, DestructorCancelsQueuedJobsAndWakesWaiters) {
  const auto parity = compile_or_die(map::make_parity(4));
  std::vector<rt::Job> jobs;
  {
    auto device =
        rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(device->load("parity", parity).ok());
    for (int j = 0; j < 6; ++j) {
      auto job = device->submit("parity", random_vectors(512, 4, 30 + j));
      ASSERT_TRUE(job.ok());
      jobs.push_back(*job);
    }
    // Device destroyed with jobs likely still queued.
  }
  for (auto& job : jobs) {
    EXPECT_TRUE(job.done());
    auto result = job.wait();  // must not block
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    }
  }
}

TEST(RtDevice, FirstWaitTakesTheResultsLaterCallsReportThemTaken) {
  const auto adder = compile_or_die(map::make_ripple_adder(3));
  auto device = rt::Device::create(adder.fabric.rows(), adder.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("adder", adder).ok());
  const auto vectors = random_vectors(1000, 7, 41);
  const auto expected = serial_reference(adder, vectors);

  // The first wait() takes the full result set, as std::future::get does;
  // a second wait() and a poll through a copy of the handle report it gone.
  auto job = device->submit("adder", vectors);
  ASSERT_TRUE(job.ok());
  rt::Job copy = *job;
  auto first = job->wait();
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(*first, expected);
  EXPECT_EQ(job->wait().status().code(), StatusCode::kFailedPrecondition);
  auto polled = copy.try_result();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(copy.done());
  EXPECT_FALSE(copy.canceled());

  // A poll that finds the job done takes the results the same way.
  auto polled_job = device->submit("adder", vectors);
  ASSERT_TRUE(polled_job.ok());
  device->drain();
  auto taken = polled_job->try_result();
  ASSERT_TRUE(taken.has_value());
  ASSERT_TRUE(taken->ok()) << taken->status().to_string();
  EXPECT_EQ(**taken, expected);
  EXPECT_EQ(polled_job->wait().status().code(),
            StatusCode::kFailedPrecondition);

  auto sync = device->run_sync("adder", vectors);
  ASSERT_TRUE(sync.ok()) << sync.status().to_string();
  EXPECT_EQ(*sync, expected);
}

TEST(RtDevice, FailedAndCanceledJobsReportTheSameStatusOnEveryCall) {
  const auto parity = compile_or_die(map::make_parity(5));
  auto device = rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(device.ok());
  ASSERT_TRUE(device->load("parity", parity).ok());
  const auto vectors = random_vectors(64, 5, 42);

  const auto expect_repeats = [](rt::Job job, StatusCode code) {
    rt::Job copy = job;
    const auto first = job.wait();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), code) << first.status().to_string();
    EXPECT_EQ(job.wait().status().to_string(), first.status().to_string());
    auto polled = copy.try_result();
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(polled->status().to_string(), first.status().to_string());
  };

  rt::FaultPlan death;
  death.events.push_back({.at_job = 1, .kind = rt::FaultKind::kDeath});
  device->install_fault_plan(death);
  auto failed = device->submit("parity", vectors);
  ASSERT_TRUE(failed.ok());
  expect_repeats(*failed, StatusCode::kUnavailable);

  // Wedge the dispatcher so the next job is still queued when canceled.
  rt::FaultPlan wedge;
  wedge.events.push_back({.at_job = 1, .kind = rt::FaultKind::kTimeout});
  wedge.timeout_hold = std::chrono::milliseconds(250);
  device->install_fault_plan(wedge);
  auto wedged = device->submit("parity", vectors);
  ASSERT_TRUE(wedged.ok());
  auto victim = device->submit("parity", vectors);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(victim->cancel());
  expect_repeats(*victim, StatusCode::kFailedPrecondition);
  expect_repeats(*wedged, StatusCode::kUnavailable);
}

TEST(RtDevice, RejectsDesignsLargerThanTheArray) {
  const auto adder = compile_or_die(map::make_ripple_adder(4));
  auto device = rt::Device::create(2, 2);
  ASSERT_TRUE(device.ok());
  EXPECT_EQ(device->load("adder", adder).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rt::Device::create(0, 5).status().code(),
            StatusCode::kInvalidArgument);

  // pad_to itself: too small fails, exact size is the identity.
  EXPECT_EQ(platform::pad_to(adder, 1, 1).status().code(),
            StatusCode::kResourceExhausted);
  auto same = platform::pad_to(adder, adder.fabric.rows(),
                               adder.fabric.cols());
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->bitstream, adder.bitstream);
}

TEST(RtDevice, PaddedDesignBehavesIdenticallyToItsOriginal) {
  // A design re-targeted onto a larger array (the padding only loads its
  // boundary) must compute exactly the same function.
  const auto adder = compile_or_die(map::make_ripple_adder(2));
  auto padded = platform::pad_to(adder, adder.fabric.rows() + 3,
                                 adder.fabric.cols() + 5);
  ASSERT_TRUE(padded.ok());
  const auto vectors = random_vectors(256, 5, 55);
  EXPECT_EQ(serial_reference(*padded, vectors),
            serial_reference(adder, vectors));
}

TEST(RtDevice, MoveAssignmentJoinsTheOverwrittenDispatcher) {
  const auto parity = compile_or_die(map::make_parity(4));
  auto a = rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  auto b = rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->load("p", parity).ok());
  auto job = a->submit("p", random_vectors(256, 4, 12));
  ASSERT_TRUE(job.ok());
  // Overwriting a live device must shut its dispatcher down cleanly (and
  // cancel or complete its jobs), not std::terminate on a joinable thread.
  *a = std::move(*b);
  EXPECT_TRUE(job->done());
  // `a` is usable: it is now the former `b`.
  ASSERT_TRUE(a->load("p", parity).ok());
  auto after = a->run_sync("p", random_vectors(16, 4, 13));
  EXPECT_TRUE(after.ok()) << after.status().to_string();
}

TEST(RtDevice, RejectsTheReservedEmptyNameAndDelayRebinds) {
  const auto parity = compile_or_die(map::make_parity(4));
  auto device =
      rt::Device::create(parity.fabric.rows(), parity.fabric.cols());
  ASSERT_TRUE(device.ok());
  // "" is the blank power-on personality's identity in the runtime.
  EXPECT_EQ(device->load("", parity).code(), StatusCode::kInvalidArgument);

  // Same netlist under a different timing model is different content: the
  // bitstream is identical but the resident delays would silently diverge.
  ASSERT_TRUE(device->load("p", parity).ok());
  core::FabricDelays slow;
  slow.nand_ps = 99;
  const auto slow_parity =
      compile_or_die_with(map::make_parity(4), slow);
  EXPECT_EQ(slow_parity.bitstream, parity.bitstream);
  EXPECT_EQ(device->load("p", slow_parity).code(),
            StatusCode::kFailedPrecondition);
  // Under a fresh name it is a distinct resident design, not an alias.
  ASSERT_TRUE(device->load("p_slow", slow_parity).ok());
  EXPECT_EQ(device->stats().designs_loaded, 2u);
  EXPECT_EQ(device->stats().dedup_hits, 0u);
}

TEST(RtJobQueue, BatchingBypassIsBounded) {
  rt::JobQueue queue;
  const auto make = [](std::uint64_t id, std::string design) {
    return std::make_shared<rt::detail::JobState>(
        id, std::move(design), std::vector<InputVector>{},
        rt::SubmitOptions{});
  };
  // An old 'b' job sits at the front while 'a' jobs keep streaming in
  // behind it; the active-design preference may jump it only
  // kMaxBatchRun times before strict FIFO is forced.
  queue.push(make(0, "b"));
  for (std::uint64_t i = 1; i <= rt::JobQueue::kDefaultMaxBatchRun + 4; ++i)
    queue.push(make(i, "a"));
  std::vector<std::uint64_t> order;
  for (int i = 0; i <= rt::JobQueue::kDefaultMaxBatchRun; ++i) {
    order.push_back(queue.pop("a")->id);
    queue.push(make(100 + i, "a"));  // the stream never dries up
  }
  for (int i = 0; i < rt::JobQueue::kDefaultMaxBatchRun; ++i)
    EXPECT_EQ(order[i], static_cast<std::uint64_t>(i + 1)) << "pop " << i;
  EXPECT_EQ(order[rt::JobQueue::kDefaultMaxBatchRun], 0u)
      << "the starved front job was not forced after the batch-run cap";
}

TEST(NetlistHash, TracksStructureAndNames) {
  const auto a = map::make_ripple_adder(3);
  const auto b = map::make_ripple_adder(3);
  EXPECT_EQ(map::content_hash(a), map::content_hash(b));
  EXPECT_NE(map::content_hash(a), map::content_hash(map::make_ripple_adder(4)));
  auto c = map::make_ripple_adder(3);
  c.mark_output(0);
  EXPECT_NE(map::content_hash(a), map::content_hash(c));
}

}  // namespace
}  // namespace pp
