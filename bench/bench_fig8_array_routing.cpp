// FIG8: the rotated-abutment array.  Routes feed-throughs across arrays of
// growing size, reporting hop counts and simulated path delay versus
// Manhattan distance — the locally-connected interconnect story.
#include "bench_common.h"
#include "core/fabric.h"
#include "map/router.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  pp::bench::init(argc, argv);
  using namespace pp;
  bench::experiment_header(
      "FIG8 adjacent-only array routing",
      "unused logic is interconnect: feed-through drivers move data between "
      "abutting blocks; delay grows linearly with Manhattan distance");

  util::Table t("Route length vs simulated delay");
  t.header({"array", "route", "hops", "delay (ps)", "ps/hop"});
  bool linear = true;
  double first_per_hop = 0;
  for (int size : {2, 4, 6, 8, 12}) {
    core::Fabric f(size, size);
    map::Router router(f);
    const map::SignalAt src{0, 0, 0};
    const map::SignalAt dst{size - 1, size - 1, 3};
    const auto res = router.try_route(src, dst);
    if (!res.ok()) {
      bench::verdict(false, "routing failed");
      return 1;
    }
    auto ef = f.elaborate();
    sim::Simulator s(ef.circuit());
    s.set_input(ef.in_line(0, 0, 0), sim::Logic::k1);
    s.settle();
    const auto dst_net = ef.in_line(size - 1, size - 1, 3);
    if (s.value(dst_net) != sim::Logic::k1) {
      bench::verdict(false, "routed value did not arrive");
      return 1;
    }
    // Measure the edge-to-edge latency of a fresh transition.
    s.set_input(ef.in_line(0, 0, 0), sim::Logic::k0);
    const auto t_launch = s.now();
    s.settle();
    const double delay = static_cast<double>(s.last_change(dst_net) - t_launch);
    const double per_hop = delay / res->hop_count;
    if (first_per_hop == 0) first_per_hop = per_hop;
    if (per_hop > first_per_hop * 1.2 || per_hop < first_per_hop * 0.8)
      linear = false;
    t.row({std::to_string(size) + "x" + std::to_string(size),
           "(0,0,0)->(" + std::to_string(size - 1) + "," +
               std::to_string(size - 1) + ",3)",
           util::Table::num(static_cast<long long>(res->hop_count)),
           util::Table::num(delay, 0), util::Table::num(per_hop, 1)});
  }
  t.print();
  bench::verdict(linear, "delay scales linearly with hop count "
                         "(pipelineable local interconnect)");
  return 0;
}
