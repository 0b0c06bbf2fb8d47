// Feed-through routing on the polymorphic fabric.
//
// The paper's interconnect story (§4): an output driver configured as a
// buffer "provides a buffer that will allow any output line to be used as a
// data feed-through from an adjacent cell".  A route is therefore a chain of
// (block, row) hops: the signal enters a block on input column j, one free
// row is configured as NAND(column j) — i.e. the complement — and its driver
// re-drives the next abutted line.  An inverting driver restores polarity,
// so every hop is polarity-neutral by default; the router can deliver the
// complement for free by flipping the final hop's driver (the paper's
// "components used interchangeably for logic and interconnection").
//
// Hops advance east or south only (see fabric.h's connectivity model), so
// the router is a BFS over (block row, block col, line index) states with
// occupancy tracking of rows and abutted lines.  No state outside the box
// spanned by source and destination lies on a path between them, so the
// search visits only that box, keeping every path an unbounded one picks.
#pragma once

#include <functional>
#include <vector>

#include "core/fabric.h"
#include "util/status.h"

namespace pp::map {

/// A signal location: "available on input line `line` of block (r, c)",
/// i.e. net in_line(r, c, line).
struct SignalAt {
  int r, c, line;
  bool operator==(const SignalAt&) const = default;
};

struct RouteResult {
  std::vector<core::LinePos> hops;  ///< (block, row) used per hop
  int hop_count = 0;
};

class Router {
 public:
  /// `fabric` must outlive the router and keep its dimensions.
  explicit Router(core::Fabric& fabric)
      : fabric_(fabric),
        reserved_(static_cast<std::size_t>(fabric.rows() + 1) *
                  (fabric.cols() + 1) * core::kBlockInputs) {}

  /// Route the signal at `src` so it appears on input line `dst`.
  /// On success the fabric is updated (rows configured as feed-throughs)
  /// and the hop list returned; on failure (kResourceExhausted when no path
  /// exists, kOutOfRange for endpoints outside the fabric) the fabric is
  /// left unmodified — guaranteed, since configuration is applied only
  /// after a complete path is found.
  /// If `invert` is set, the delivered value is the complement.
  [[nodiscard]] Result<RouteResult> try_route(const SignalAt& src,
                                              const SignalAt& dst,
                                              bool invert = false);

  /// Declare an input line off-limits: no route may drive it (not even as
  /// the side-effect copy of a hop), except as the explicit destination of
  /// its own `try_route` call.  The platform compiler reserves IO pad
  /// lines and macro input lines this way.  Lines outside the fabric are
  /// ignored.
  void reserve_line(const SignalAt& s);
  [[nodiscard]] bool line_reserved(int r, int c, int line) const;

  /// Install a predicate vetoing rows (e.g. rows with defective leaf cells,
  /// from arch::DefectMap).  Returning false blocks row `row` of block
  /// (r, c) for routing.  Pass nullptr to clear.
  void set_row_filter(std::function<bool(int r, int c, int row)> filter) {
    row_filter_ = std::move(filter);
  }

  /// True if row `row` of block (r,c) is unused (no crosspoints, driver off,
  /// not tapped by any lfb of this block or its west/north pair partners)
  /// and not vetoed by the row filter.
  [[nodiscard]] bool row_free(int r, int c, int row) const;

  /// True if input line (r,c,line) has no enabled abutting driver yet.
  /// (Reservations are a separate, router-level constraint — see
  /// `line_reserved`.)
  [[nodiscard]] bool line_free(int r, int c, int line) const;

 private:
  /// True for an input line of the fabric (in_line's addressing).
  [[nodiscard]] bool on_fabric(const SignalAt& s) const;

  core::Fabric& fabric_;
  std::vector<bool> reserved_;  // one bit per (r, c, line), row-major
  std::function<bool(int, int, int)> row_filter_;
};

}  // namespace pp::map
