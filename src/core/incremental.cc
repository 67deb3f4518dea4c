#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/self_check.h"

namespace pinocchio {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Watch-set pad parameters. A rebuilt watch set stays valid while the
// object's minMaxRadius stays at or below the pad radius (sized for twice
// the current position count, so radius-driven rebuilds are O(log) per
// doubling) and its MBR has not grown past the pad slack on any side.
// kExpansionSafety > sqrt(2) absorbs the worst-case corner shrinkage of a
// point-to-box distance when the box inflates, plus rounding headroom.
constexpr size_t kPadPositions = 16;
constexpr double kPadRadiusShare = 0.25;
constexpr double kMinPadSlack = 1e-6;
constexpr double kExpansionSafety = 1.5;

/// How far `mbr` sticks out past `pad` on its widest side (0 if inside).
double ExpansionBeyond(const Mbr& pad, const Mbr& mbr) {
  double expansion = 0.0;
  expansion = std::max(expansion, pad.min_x() - mbr.min_x());
  expansion = std::max(expansion, mbr.max_x() - pad.max_x());
  expansion = std::max(expansion, pad.min_y() - mbr.min_y());
  expansion = std::max(expansion, mbr.max_y() - pad.max_y());
  return expansion;
}

using MonoDeque = std::deque<std::pair<uint64_t, double>>;

void PushMin(MonoDeque& d, uint64_t seq, double value) {
  while (!d.empty() && d.back().second >= value) d.pop_back();
  d.emplace_back(seq, value);
}

void PushMax(MonoDeque& d, uint64_t seq, double value) {
  while (!d.empty() && d.back().second <= value) d.pop_back();
  d.emplace_back(seq, value);
}

void PopExpired(MonoDeque& d, uint64_t seq) {
  if (!d.empty() && d.front().first == seq) d.pop_front();
}

/// The config's PF, checked before the kernel member is built from it.
const ProbabilityFunction& CheckedPf(const SolverConfig& config) {
  PINO_CHECK(config.pf != nullptr);
  return *config.pf;
}

}  // namespace

IncrementalPrimeLS::IncrementalPrimeLS(std::vector<Point> candidates,
                                       SolverConfig config)
    : config_(std::move(config)),
      influence_(candidates.size(), 0),
      rtree_(BuildCandidateRTree(candidates, config_.rtree_fanout)),
      kernel_(CheckedPf(config_), config_.tau),
      // Built for its threshold table only — Filter() is never called, so
      // the portable tier is fine on every architecture and under every
      // override.
      delta_table_(*config_.pf, config_.tau, kernel_.early_exit_log_survival(),
                   SimdTier::kPortable),
      self_check_(SelfCheckEnabled()) {
  for (uint32_t j = 0; j < influence_.size(); ++j) order_.emplace(0, j);
}

double IncrementalPrimeLS::RadiusFor(size_t n) {
  auto it = radius_by_n_.find(n);
  if (it == radius_by_n_.end()) {
    it = radius_by_n_.emplace(n, config_.pf->MinMaxRadius(config_.tau, n))
             .first;
  }
  return it->second;
}

void IncrementalPrimeLS::BumpInfluence(uint32_t j, int64_t delta) {
  if (delta == 0) return;
  order_.erase({influence_[j], j});
  influence_[j] += delta;
  order_.emplace(influence_[j], j);
}

std::span<const Point> IncrementalPrimeLS::WindowSpan(
    const LiveObject& live) const {
  return std::span<const Point>(live.positions).subspan(live.delta.head);
}

size_t IncrementalPrimeLS::NumPositionsOf(uint32_t object_id) const {
  const auto it = objects_.find(object_id);
  if (it == objects_.end()) return 0;
  return WindowSpan(it->second).size();
}

void IncrementalPrimeLS::RefoldEntry(WatchEntry& entry,
                                     std::span<const Point> span) const {
  const ProbabilityFunction& pf = *config_.pf;
  double lo = 0.0;
  double hi = 0.0;
  uint32_t certain = 0;
  for (const Point& p : span) {
    const double prob = pf(Distance(entry.location, p));
    if (prob >= 1.0) {
      ++certain;
      continue;
    }
    const double t = std::log1p(-prob);
    lo = std::nextafter(lo + t, -kInf);
    hi = std::nextafter(hi + t, kInf);
  }
  entry.sum_lo = lo;
  entry.sum_hi = hi;
  entry.certain = certain;
}

namespace {

/// Applies one position's scalar log-survival term to `entry`'s certified
/// bracket, outward-rounded so the bracket keeps containing the true sum.
/// Append and expire call this with the same (location, position) pair and
/// opposite signs, so the term cancels bit-exactly on expiry.
void ApplyTerm(const ProbabilityFunction& pf, const Point& location,
               const Point& position, bool add, uint32_t* certain,
               double* sum_lo, double* sum_hi) {
  const double prob = pf(Distance(location, position));
  if (prob >= 1.0) {
    if (add) {
      ++*certain;
    } else {
      PINO_CHECK_GT(*certain, 0u);
      --*certain;
    }
    return;
  }
  const double term = std::log1p(-prob);
  const double delta = add ? term : -term;
  *sum_lo = std::nextafter(*sum_lo + delta, -kInf);
  *sum_hi = std::nextafter(*sum_hi + delta, kInf);
}

}  // namespace

void IncrementalPrimeLS::DecideEntry(WatchEntry& entry,
                                     const LiveObject& live) {
  const std::span<const Point> span = WindowSpan(live);
  const auto terms = static_cast<uint64_t>(span.size());
  const simd_internal::FilterTable& table = delta_table_.table();
  bool influenced;
  if (entry.certain > 0) {
    influenced = true;  // a saturated position alone decides (Lemma 4)
  } else if (entry.sum_hi <=
             simd_internal::AdjustedInfluenceThreshold(table, terms)) {
    influenced = true;
  } else if (entry.sum_lo >=
             simd_internal::AdjustedRejectThreshold(table, terms)) {
    influenced = false;
  } else {
    // Boundary band: the exact scalar kernel decides, and the refold
    // resets the interval widening the incremental updates accumulated.
    influenced = kernel_.Decide(entry.location, span).influenced;
    RefoldEntry(entry, span);
  }
  if (self_check_) {
    const bool exact = kernel_.Decide(entry.location, span).influenced;
    if (exact != influenced) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "delta bracket disagrees with kernel Decide: bracket says "
          << (influenced ? "influenced" : "not influenced") << " but Decide "
          << (exact ? "influenced" : "not influenced") << " for candidate "
          << entry.candidate << " at (" << entry.location.x << ", "
          << entry.location.y << ") over " << span.size()
          << " positions (sum in [" << entry.sum_lo << ", " << entry.sum_hi
          << "], certain=" << entry.certain << ")";
      ReportSelfCheckViolation(msg.str());
    }
  }
  if (influenced != entry.influenced) {
    entry.influenced = influenced;
    BumpInfluence(entry.candidate, influenced ? +1 : -1);
  }
}

void IncrementalPrimeLS::RebuildWatch(LiveObject& live) {
  DeltaState& d = live.delta;
  const std::span<const Point> span = WindowSpan(live);
  const size_t n = span.size();
  double pad_radius = RadiusFor(2 * n + kPadPositions);
  // Guard against ulp-level non-monotonicity of the computed radius: the
  // pad must dominate the current certificate.
  pad_radius = std::max(pad_radius, live.min_max_radius);
  const double pad_slack =
      std::max(kPadRadiusShare * std::max(pad_radius, 0.0), kMinPadSlack);

  // Carry surviving entries over untouched (their brackets stay sound);
  // entries that fall outside the new pad must be uninfluenced — keep any
  // influenced stragglers defensively so counters never go stale.
  std::unordered_map<uint32_t, size_t> old_index;
  old_index.reserve(d.watch.size());
  for (size_t i = 0; i < d.watch.size(); ++i) {
    old_index.emplace(d.watch[i].candidate, i);
  }
  std::vector<WatchEntry> fresh;
  std::unordered_set<uint32_t> selected;
  if (pad_radius >= 0.0) {
    const double watch_radius = pad_radius + pad_slack;
    rtree_.QueryRect(live.mbr.Inflated(watch_radius), [&](const RTreeEntry& e) {
      if (live.mbr.MinDist(e.point) > watch_radius) return;
      selected.insert(e.id);
      const auto it = old_index.find(e.id);
      if (it != old_index.end()) {
        fresh.push_back(std::move(d.watch[it->second]));
        return;
      }
      WatchEntry entry;
      entry.candidate = e.id;
      entry.location = e.point;
      RefoldEntry(entry, span);
      fresh.push_back(entry);
      DecideEntry(fresh.back(), live);
    });
  }
  for (WatchEntry& entry : d.watch) {
    if (entry.influenced && selected.find(entry.candidate) == selected.end()) {
      fresh.push_back(std::move(entry));
    }
  }
  d.watch = std::move(fresh);
  d.pad_mbr = live.mbr;
  d.pad_radius = pad_radius;
  d.pad_slack = pad_slack;
}

size_t IncrementalPrimeLS::ApplyDelta(LiveObject& live, const Point& position,
                                      bool add, bool born,
                                      uint32_t object_id) {
  DeltaState& d = live.delta;
  live.mbr = Mbr(d.min_x.front().second, d.min_y.front().second,
                 d.max_x.front().second, d.max_y.front().second);
  const size_t n = live.positions.size() - d.head;
  live.min_max_radius = RadiusFor(n);

  for (WatchEntry& entry : d.watch) {
    ApplyTerm(*config_.pf, entry.location, position, add, &entry.certain,
              &entry.sum_lo, &entry.sum_hi);
    DecideEntry(entry, live);
  }

  // Birth or pad escape: a new object has no watch set yet, and a grown
  // certificate may admit candidates the watch set does not hold; query
  // the R-tree and decide entrants. A shrinking MBR/radius cannot escape
  // the pad, but computed radii are only monotone to a few ulps, so
  // expiries recheck rather than assume.
  if (born || live.min_max_radius > d.pad_radius ||
      ExpansionBeyond(d.pad_mbr, live.mbr) * kExpansionSafety > d.pad_slack) {
    RebuildWatch(live);
  }

  if (self_check_) {
    const Mbr expect = Mbr::Of(WindowSpan(live));
    if (!(expect == live.mbr)) {
      std::ostringstream msg;
      msg << "delta MBR diverged from Mbr::Of over the window for object "
          << object_id;
      ReportSelfCheckViolation(msg.str());
    }
  }
  return n;
}

size_t IncrementalPrimeLS::AppendPosition(uint32_t object_id,
                                          const Point& position) {
  const auto [it, born] = objects_.try_emplace(object_id);
  LiveObject& live = it->second;
  DeltaState& d = live.delta;
  live.positions.push_back(position);
  const uint64_t seq = d.next_seq++;
  PushMin(d.min_x, seq, position.x);
  PushMax(d.max_x, seq, position.x);
  PushMin(d.min_y, seq, position.y);
  PushMax(d.max_y, seq, position.y);
  return ApplyDelta(live, position, /*add=*/true, born, object_id);
}

bool IncrementalPrimeLS::ExpireOldestPosition(uint32_t object_id) {
  auto it = objects_.find(object_id);
  if (it == objects_.end()) return false;
  LiveObject& live = it->second;
  DeltaState& d = live.delta;
  if (WindowSpan(live).size() <= 1) {
    // Last in-window position: the object leaves entirely.
    for (const WatchEntry& entry : d.watch) {
      if (entry.influenced) BumpInfluence(entry.candidate, -1);
    }
    objects_.erase(it);
    return true;
  }

  const Point expired = live.positions[d.head];
  const uint64_t seq = d.base_seq++;
  ++d.head;
  PopExpired(d.min_x, seq);
  PopExpired(d.max_x, seq);
  PopExpired(d.min_y, seq);
  PopExpired(d.max_y, seq);
  ApplyDelta(live, expired, /*add=*/false, /*born=*/false, object_id);

  // Compact the expired prefix once it dominates the allocation.
  if (d.head > 64 && d.head > live.positions.size() / 2) {
    live.positions.erase(live.positions.begin(),
                         live.positions.begin() +
                             static_cast<std::ptrdiff_t>(d.head));
    d.head = 0;
  }
  return true;
}

int64_t IncrementalPrimeLS::InfluenceOf(size_t candidate_index) const {
  PINO_CHECK_LT(candidate_index, influence_.size());
  return influence_[candidate_index];
}

std::optional<std::pair<size_t, int64_t>> IncrementalPrimeLS::Best() const {
  if (order_.empty()) return std::nullopt;
  const auto& top = *order_.begin();
  return std::make_pair(static_cast<size_t>(top.second), top.first);
}

std::vector<std::pair<size_t, int64_t>> IncrementalPrimeLS::TopK(
    size_t k) const {
  std::vector<std::pair<size_t, int64_t>> top;
  top.reserve(std::min(k, order_.size()));
  for (const auto& [influence, j] : order_) {
    if (top.size() >= k) break;
    top.emplace_back(static_cast<size_t>(j), influence);
  }
  return top;
}

}  // namespace pinocchio
