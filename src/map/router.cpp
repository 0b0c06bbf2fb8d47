#include "map/router.h"

#include <algorithm>
#include <cstdint>
#include <queue>

namespace pp::map {

using core::BiasLevel;
using core::BlockConfig;
using core::ColSource;
using core::DriverCfg;
using core::kBlockInputs;
using core::kBlockOutputs;
using core::LfbWhich;

bool Router::on_fabric(const SignalAt& s) const {
  return s.r >= 0 && s.r <= fabric_.rows() && s.c >= 0 &&
         s.c <= fabric_.cols() &&
         !(s.r == fabric_.rows() && s.c == fabric_.cols()) && s.line >= 0 &&
         s.line < kBlockInputs;
}

void Router::reserve_line(const SignalAt& s) {
  if (on_fabric(s))
    reserved_[(static_cast<std::size_t>(s.r) * (fabric_.cols() + 1) + s.c) *
                  kBlockInputs +
              s.line] = true;
}

bool Router::line_reserved(int r, int c, int line) const {
  return on_fabric({r, c, line}) &&
         reserved_[(static_cast<std::size_t>(r) * (fabric_.cols() + 1) + c) *
                       kBlockInputs +
                   line];
}

bool Router::row_free(int r, int c, int row) const {
  if (r < 0 || r >= fabric_.rows() || c < 0 || c >= fabric_.cols())
    return false;
  if (row_filter_ && !row_filter_(r, c, row)) return false;
  const BlockConfig& b = fabric_.block(r, c);
  for (int j = 0; j < kBlockInputs; ++j)
    if (b.xpoint[row][j] != BiasLevel::kForce1) return false;
  if (b.driver[row] != DriverCfg::kOff) return false;
  // A row tapped by an lfb (own block or a west/north partner tapping
  // east/south) is in use even if its crosspoints are empty.
  auto taps = [&](int br, int bc, LfbWhich which) {
    if (br < 0 || bc < 0 || br >= fabric_.rows() || bc >= fabric_.cols())
      return false;
    const BlockConfig& nb = fabric_.block(br, bc);
    for (const auto& sel : nb.lfb_src)
      if (sel.which == which && sel.row == row) return true;
    return false;
  };
  return !(taps(r, c, LfbWhich::kOwn) || taps(r, c - 1, LfbWhich::kEast) ||
           taps(r - 1, c, LfbWhich::kSouth));
}

bool Router::line_free(int r, int c, int line) const {
  // Drivers that can reach input line (r,c,line): west block (r,c-1) row
  // `line`, north block (r-1,c) row `line`.
  if (c > 0 && r < fabric_.rows() &&
      fabric_.block(r, c - 1).driver[line] != DriverCfg::kOff)
    return false;
  if (r > 0 && c < fabric_.cols() &&
      fabric_.block(r - 1, c).driver[line] != DriverCfg::kOff)
    return false;
  return true;
}

Result<RouteResult> Router::try_route(const SignalAt& src, const SignalAt& dst,
                                      bool invert) {
  if (!on_fabric(src) || !on_fabric(dst))
    return Status::out_of_range("route: endpoint outside the fabric");
  if (src == dst && !invert) return RouteResult{};  // already there
  const Status no_path = Status::resource_exhausted(
      "route: no feed-through path from the source to the destination");
  // Hops only move east or south: a destination north or west of the
  // source is unreachable.
  if (dst.r < src.r || dst.c < src.c) return no_path;

  // A line may be used by a hop only if it has no abutting driver yet and is
  // not reserved (the explicit destination may be reserved: reservations
  // exist precisely to keep *other* routes off someone's input line).
  auto line_usable = [&](int r, int c, int line) {
    return line_free(r, c, line) &&
           (!line_reserved(r, c, line) || SignalAt{r, c, line} == dst);
  };

  // Per state of the box, a back pointer: 0 = unvisited, kSource, or
  // 1 + east * kBlockInputs + the predecessor's line (the hop's block is the
  // predecessor's and its row the state's line).  Per block, the rows it
  // can forward through: bit `row`, found when its first state is expanded.
  constexpr std::uint8_t kSource = 0xff, kUnknown = 0x80;
  const int box_cols = dst.c - src.c + 1;
  const auto box_blocks =
      static_cast<std::size_t>(dst.r - src.r + 1) * box_cols;
  auto block_of = [&](int r, int c) {
    return static_cast<std::size_t>(r - src.r) * box_cols + (c - src.c);
  };
  std::vector<std::uint8_t> back(box_blocks * kBlockInputs);
  std::vector<std::uint8_t> hop_rows(box_blocks, kUnknown);
  auto from = [&](const SignalAt& s) -> std::uint8_t& {
    return back[block_of(s.r, s.c) * kBlockInputs + s.line];
  };
  std::queue<SignalAt> frontier({src});
  from(src) = kSource;

  bool found = false;
  while (!frontier.empty() && !found) {
    // The signal sits on input line `line` of block (br, bc), which can
    // forward it through any free row unless that column reads an lfb.
    const auto [br, bc, line] = frontier.front();
    frontier.pop();
    if (br >= fabric_.rows() || bc >= fabric_.cols() ||
        fabric_.block(br, bc).col_src[line] != ColSource::kAbut)
      continue;
    std::uint8_t& rows = hop_rows[block_of(br, bc)];
    if (rows == kUnknown) {
      // Driving row `row` lands the value on the east and south lines of
      // index `row`; both must be usable (one driver reaches both), even
      // when one of them lies outside the box.
      rows = 0;
      for (int row = 0; row < kBlockOutputs; ++row)
        if (row_free(br, bc, row) && line_usable(br, bc + 1, row) &&
            line_usable(br + 1, bc, row))
          rows |= static_cast<std::uint8_t>(1u << row);
    }
    for (int row = 0; row < kBlockOutputs && !found; ++row) {
      if ((rows >> row & 1u) == 0) continue;
      // South explored first: among equal-length monotone paths BFS keeps
      // the first-visited predecessor, so routes drop south out of the IO
      // row into open fabric instead of piling east along the boundary.
      for (const int east : {0, 1}) {
        const SignalAt n{br + 1 - east, bc + east, row};
        if (n.r > dst.r || n.c > dst.c || from(n) != 0) continue;
        from(n) = static_cast<std::uint8_t>(1 + east * kBlockInputs + line);
        found = n == dst;
        if (found) break;
        frontier.push(n);
      }
    }
  }
  if (!found) return no_path;

  // Walk back from the destination, applying each hop: xpoint[row][in_line]
  // active and the driver Invert (polarity-neutral), or Buffer on the final
  // hop when the caller wants the complement.
  RouteResult result;
  for (SignalAt s = dst; from(s) != kSource;) {
    const int code = from(s) - 1, east = code / kBlockInputs;
    const SignalAt p{s.r - 1 + east, s.c - east, code % kBlockInputs};
    BlockConfig& b = fabric_.block(p.r, p.c);
    b.xpoint[s.line][p.line] = BiasLevel::kActive;
    b.driver[s.line] = (invert && result.hops.empty()) ? DriverCfg::kBuffer
                                                       : DriverCfg::kInvert;
    result.hops.push_back({p.r, p.c, s.line});
    s = p;
  }
  std::reverse(result.hops.begin(), result.hops.end());
  result.hop_count = static_cast<int>(result.hops.size());
  return result;
}

}  // namespace pp::map
