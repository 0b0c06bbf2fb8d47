// Router edge cases: refusal when the fabric is full or the destination
// lies north or west of the source, polarity of inverted delivery (checked
// in simulation), boundary destinations, the no-modification guarantee on
// failure, and the platform-facing reservation / row-filter hooks.
#include <gtest/gtest.h>

#include "core/fabric.h"
#include "map/router.h"
#include "sim/simulator.h"

namespace pp::map {
namespace {

using core::BiasLevel;
using core::DriverCfg;
using core::Fabric;

/// Occupy every row of a block with a dummy term so the router cannot use
/// it.
void fill_block(Fabric& f, int r, int c) {
  for (int row = 0; row < core::kBlockOutputs; ++row)
    f.block(r, c).xpoint[row][row] = BiasLevel::kActive;
}

/// Every block's configuration, row-major.
std::vector<core::BlockConfig> snapshot(const Fabric& f) {
  std::vector<core::BlockConfig> blocks;
  for (int r = 0; r < f.rows(); ++r)
    for (int c = 0; c < f.cols(); ++c) blocks.push_back(f.block(r, c));
  return blocks;
}

TEST(Router, RefusedWhenAllRowsOccupied) {
  Fabric f(2, 2);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) fill_block(f, r, c);
  Router router(f);
  const auto result = router.try_route({0, 0, 0}, {1, 1, 3});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Router, FailedRouteLeavesFabricUnmodified) {
  // A long route that *starts* routable but hits a wall: the south-east
  // quadrant is fully occupied, so no path reaches the destination.  The
  // guarantee: the attempt must not leave any partial feed-through behind.
  Fabric f(3, 6);
  for (int r = 0; r < 3; ++r)
    for (int c = 3; c < 6; ++c) fill_block(f, r, c);
  Router router(f);
  const auto before = snapshot(f);
  const auto result = router.try_route({0, 0, 0}, {2, 5, 4});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(snapshot(f), before) << "failed route modified the fabric";
}

TEST(Router, OutOfRangeEndpointsRejected) {
  Fabric f(2, 2);
  Router router(f);
  EXPECT_EQ(router.try_route({-1, 0, 0}, {1, 1, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(router.try_route({0, 0, 0}, {1, 1, 6}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(router.try_route({0, 0, 0}, {2, 2, 0}).status().code(),
            StatusCode::kOutOfRange);  // the non-existent corner
}

/// Elaborate and check what value the routed line carries for a driven 1.
sim::Logic delivered_value(Fabric& f, const SignalAt& src, const SignalAt& dst,
                           bool drive) {
  auto ef = f.elaborate();
  sim::Simulator s(ef.circuit());
  s.set_input(ef.in_line(src.r, src.c, src.line), sim::from_bool(drive));
  s.settle();
  return s.value(ef.in_line(dst.r, dst.c, dst.line));
}

TEST(Router, DestinationNorthOrWestOfSourceIsUnreachable) {
  // Hops only move east or south.
  Fabric f(3, 4);
  Router router(f);
  const auto before = snapshot(f);
  for (const auto& [src, dst] :
       {std::pair<SignalAt, SignalAt>{{1, 2, 0}, {0, 3, 0}},  // src south
        {{0, 3, 0}, {1, 2, 0}},                               // src east
        {{2, 2, 1}, {1, 1, 1}}}) {                            // both
    const auto result = router.try_route(src, dst);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(snapshot(f), before);
}

TEST(Router, InvertedDeliveryToItselfIsUnreachable) {
  // A complement needs at least one hop, and no path returns to its source.
  Fabric f(2, 2);
  Router router(f);
  EXPECT_TRUE(router.try_route({0, 0, 0}, {0, 0, 0}).ok());
  EXPECT_EQ(router.try_route({0, 0, 0}, {0, 0, 0}, /*invert=*/true)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(snapshot(f), snapshot(Fabric(2, 2)));
}

TEST(Router, RoutesToSouthAndEastBoundaryLines) {
  // Lines on the south (r == rows) and east (c == cols) boundary are the
  // array's output attachment points.
  for (const SignalAt dst : {SignalAt{2, 1, 4}, SignalAt{1, 3, 2}}) {
    for (const bool drive : {false, true}) {
      Fabric f(2, 3);
      Router router(f);
      const auto result = router.try_route({0, 0, 0}, dst);
      ASSERT_TRUE(result.ok()) << result.status().to_string();
      EXPECT_EQ(delivered_value(f, {0, 0, 0}, dst, drive),
                sim::from_bool(drive));
    }
  }
}

TEST(Router, AbuttedCopyOutsideTheBoxStillBlocksAHop) {
  // An east route along row 0 drives a south copy onto row-1 lines, which
  // lie outside the source-destination box; a copy that would land on a
  // reserved or already-driven line must still refuse the hop.  Block
  // (0,1) is the only way east, and its copies land on lines (1,1,*).
  const SignalAt src{0, 0, 0}, dst{0, 2, 0};
  {
    Fabric f(2, 3);
    Router router(f);
    ASSERT_TRUE(router.try_route(src, dst).ok());  // open fabric: routable
  }
  {
    Fabric f(2, 3);
    Router router(f);
    for (int line = 0; line < core::kBlockInputs; ++line)
      router.reserve_line({1, 1, line});
    const auto before = snapshot(f);
    EXPECT_EQ(router.try_route(src, dst).status().code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(snapshot(f), before);
  }
  {
    Fabric f(2, 3);
    // Block (1,0) already drives every line (1,1,*) from the west.
    for (int row = 0; row < core::kBlockOutputs; ++row)
      f.block(1, 0).driver[row] = DriverCfg::kInvert;
    Router router(f);
    const auto before = snapshot(f);
    EXPECT_EQ(router.try_route(src, dst).status().code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(snapshot(f), before);
  }
}

TEST(Router, InvertDeliversComplementInSimulation) {
  for (const bool drive : {false, true}) {
    Fabric f(2, 4);
    Router router(f);
    const auto result = router.try_route({0, 0, 0}, {1, 3, 2}, /*invert=*/true);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(delivered_value(f, {0, 0, 0}, {1, 3, 2}, drive),
              sim::from_bool(!drive));
  }
}

TEST(Router, StraightDeliveryPreservesPolarityInSimulation) {
  for (const bool drive : {false, true}) {
    Fabric f(2, 4);
    Router router(f);
    const auto result = router.try_route({0, 0, 0}, {1, 3, 2});
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(delivered_value(f, {0, 0, 0}, {1, 3, 2}, drive),
              sim::from_bool(drive));
  }
}

TEST(Router, ReservedLineIsAvoidedExceptAsDestination) {
  // With line (0,1,*) unreserved, the straight east route would drive
  // through it.  Reserving (0,1,0) forces the router around (or fails);
  // the reserved line must end up undriven.
  Fabric f(2, 3);
  Router router(f);
  router.reserve_line({0, 1, 0});
  const auto result = router.try_route({0, 0, 0}, {0, 2, 0});
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(router.line_free(0, 1, 0))
      << "route drove a reserved line as a side effect";

  // The same reserved line is still routable as an explicit destination.
  Fabric g(2, 3);
  Router router2(g);
  router2.reserve_line({0, 1, 0});
  EXPECT_TRUE(router2.try_route({0, 0, 0}, {0, 1, 0}).ok());
}

TEST(Router, RowFilterVetoesRows) {
  Fabric f(1, 3);
  Router router(f);
  // Veto every row of the only forwarding block: routing must fail.
  router.set_row_filter([](int, int c, int) { return c != 0; });
  EXPECT_EQ(router.try_route({0, 0, 0}, {0, 1, 3}).status().code(),
            StatusCode::kResourceExhausted);
  router.set_row_filter(nullptr);
  EXPECT_TRUE(router.try_route({0, 0, 0}, {0, 1, 3}).ok());
}

}  // namespace
}  // namespace pp::map
