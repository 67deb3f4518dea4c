#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// The table the stream's brackets sum: the kernel's filter, or a portable
/// one where the kernel runs scalar and builds none.
std::shared_ptr<const SimdInfluenceFilter> StreamTable(
    const InfluenceKernel& kernel) {
  if (kernel.filter() != nullptr) return kernel.filter();
  return std::make_shared<const SimdInfluenceFilter>(
      kernel.pf(), kernel.tau(), kernel.early_exit_log_survival(),
      SimdTier::kPortable);
}

}  // namespace

IncrementalPrimeLS::IncrementalPrimeLS(std::vector<Point> candidates,
                                       SolverConfig config)
    : config_(std::move(config)),
      candidates_(std::move(candidates)),
      influence_(candidates_.size(), 0),
      rtree_(BuildCandidateRTree(candidates_, config_.rtree_fanout)),
      kernel_(CheckedPf(config_), config_.tau),
      delta_table_(StreamTable(kernel_)),
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

void IncrementalPrimeLS::SetInfluenced(WatchEntry& entry, bool influenced,
                                       const BandBracket* bracket,
                                       std::span<const Point> span) {
  if (self_check_) VerifyDecision(entry, bracket, span, influenced);
  if (influenced == entry.influenced) return;
  entry.influenced = influenced;
  BumpInfluence(entry.candidate, influenced ? +1 : -1);
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

IncrementalPrimeLS::DeltaThresholds IncrementalPrimeLS::ThresholdsFor(
    size_t n) const {
  DeltaThresholds t;
  t.span = delta_table_->Thresholds(n);
  t.fixed = simd_internal::ToFixed(t.span);
  t.fixed_exact = n <= simd_internal::kMaxFixedTerms;
  return t;
}

namespace {

using simd_internal::FixedBounds;

// FoldSlot and ReadTable take the class's private WatchEntry as a template
// parameter.

/// Adds (or subtracts) one slot's fixed bounds to a table bracket. The sums
/// are unsigned, so they wrap instead of overflowing, and a term that was
/// added cancels exactly when it is subtracted.
template <typename Entry>
void FoldSlot(const FixedBounds& slot, bool add, Entry& entry) {
  if (add) {
    entry.lo += slot.lo;
    entry.hi += slot.hi;
    entry.inf += slot.inf;
  } else {
    entry.lo -= slot.lo;
    entry.hi -= slot.hi;
    entry.inf -= slot.inf;
  }
}

/// The table slot of `position` seen from `candidate`. FoldTable and
/// ApplyDelta both index through here, so a position subtracted on expiry
/// leaves the very slot it was added from and the bracket cancels exactly.
int64_t PairSlot(const simd_internal::SlotOf& slot, const Point& candidate,
                 const Point& position) {
  const double dx = candidate.x - position.x;
  const double dy = candidate.y - position.y;
  return slot(dx * dx + dy * dy);
}

enum class TableVerdict : uint8_t { kStraddle, kInfluenced, kRejected };

struct TableRead {
  TableVerdict verdict = TableVerdict::kStraddle;
  /// The bracket clears its threshold by at least its own width.
  bool clear = false;
};

/// Reads a table bracket [lo, hi] (sums of rounded-outward slot bounds,
/// so the true sum lies inside) against one delta's fixed thresholds.
template <typename Entry>
TableRead ReadTable(const Entry& entry,
                    const simd_internal::FixedThresholds& fixed) {
  // A -inf upper bound is a saturated position: it decides alone, however
  // far the finite sums sit from the threshold.
  if (entry.inf >= FixedBounds::kSaturated) {
    return {TableVerdict::kInfluenced, true};
  }
  const bool finite = entry.inf == 0;  // no -inf lower bound either
  const auto lo = static_cast<int64_t>(entry.lo);
  const auto hi = static_cast<int64_t>(entry.hi);
  const int64_t width = hi - lo;
  if (hi <= fixed.influence) {
    return {TableVerdict::kInfluenced,
            finite && fixed.influence - hi >= width};
  }
  if (finite && lo >= fixed.reject) {
    return {TableVerdict::kRejected, lo - fixed.reject >= width};
  }
  return {};
}

/// Applies one position's scalar log-survival term to a band bracket,
/// outward-rounded so the bracket keeps containing the true sum. Each
/// update widens the bracket by an ulp per side, so it is reset by a
/// refold whenever the kernel has to decide.
void ApplyTerm(const ProbabilityFunction& pf, const Point& location,
               const Point& position, bool add, uint32_t* certain,
               double* sum_lo, double* sum_hi) {
  const double prob = pf(Distance(location, position));
  if (prob >= 1.0) {
    // An expired position's term entered the bracket when the position
    // was appended or when the bracket was folded over the window.
    if (add) {
      ++*certain;
    } else {
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

void IncrementalPrimeLS::FoldTable(WatchEntry& entry,
                                   std::span<const Point> span) {
  const simd_internal::FilterTable& table = delta_table_->table();
  const simd_internal::SlotOf slot(table);
  const Point c = candidates_[entry.candidate];
  entry.lo = entry.hi = entry.inf = 0;
  for (const Point& p : span) {
    FoldSlot(table.fixed[PairSlot(slot, c, p)], /*add=*/true, entry);
  }
}

IncrementalPrimeLS::BandBracket IncrementalPrimeLS::FoldBand(
    const Point& candidate, std::span<const Point> span) {
  BandBracket bracket;
  for (const Point& p : span) {
    ApplyTerm(*config_.pf, candidate, p, /*add=*/true, &bracket.certain,
              &bracket.sum_lo, &bracket.sum_hi);
  }
  return bracket;
}

bool IncrementalPrimeLS::DecideBand(
    BandBracket& bracket, bool fresh, const Point& candidate,
    std::span<const Point> span,
    const simd_internal::SpanThresholds& thresholds) {
  if (bracket.certain > 0) return true;  // a saturated position (Lemma 4)
  if (bracket.sum_hi <= thresholds.influence) return true;
  if (bracket.sum_lo >= thresholds.reject) return false;
  // Straddles too: the exact scalar kernel decides, and a refold resets
  // the widening the incremental updates accumulated.
  const bool influenced = kernel_.Decide(candidate, span).influenced;
  if (!fresh) bracket = FoldBand(candidate, span);
  return influenced;
}

void IncrementalPrimeLS::Settle(WatchEntry& entry,
                                std::vector<BandBracket>& band, size_t* next,
                                std::span<const Point> span,
                                const DeltaThresholds& thresholds) {
  if (!entry.banded && thresholds.fixed_exact) {
    const TableRead read = ReadTable(entry, thresholds.fixed);
    if (read.verdict != TableVerdict::kStraddle) {
      SetInfluenced(entry, read.verdict == TableVerdict::kInfluenced,
                    /*bracket=*/nullptr, span);
      return;
    }
  }
  SettleBand(entry, band, next, span, thresholds);
}

void IncrementalPrimeLS::SettleBand(WatchEntry& entry,
                                    std::vector<BandBracket>& band,
                                    size_t* next, std::span<const Point> span,
                                    const DeltaThresholds& thresholds) {
  const Point& c = candidates_[entry.candidate];
  const TableRead read = thresholds.fixed_exact
                             ? ReadTable(entry, thresholds.fixed)
                             : TableRead{};
  bool influenced;
  const BandBracket* bracket = nullptr;
  if (read.verdict != TableVerdict::kStraddle) {
    // The table decides a banded entry (Settle took the unbanded ones).
    influenced = read.verdict == TableVerdict::kInfluenced;
    if (read.clear) {
      band.erase(band.begin() + static_cast<std::ptrdiff_t>(*next));
      entry.banded = false;
      ++counters_.band_drops;
    } else {
      bracket = &band[(*next)++];
    }
  } else {
    const bool fresh = !entry.banded;
    if (fresh) {
      band.insert(band.begin() + static_cast<std::ptrdiff_t>(*next),
                  FoldBand(c, span));
      entry.banded = true;
      ++counters_.band_opens;
    }
    BandBracket& open = band[(*next)++];
    influenced = DecideBand(open, fresh, c, span, thresholds.span);
    bracket = &open;
  }
  SetInfluenced(entry, influenced, bracket, span);
}

void IncrementalPrimeLS::VerifyDecision(const WatchEntry& entry,
                                        const BandBracket* bracket,
                                        std::span<const Point> span,
                                        bool influenced) const {
  const Point& c = candidates_[entry.candidate];
  const bool exact = kernel_.Decide(c, span).influenced;
  if (exact == influenced) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << "delta bracket disagrees with kernel Decide: bracket says "
      << (influenced ? "influenced" : "not influenced") << " but Decide "
      << (exact ? "influenced" : "not influenced") << " for candidate "
      << entry.candidate << " at (" << c.x << ", " << c.y << ") over "
      << span.size() << " positions (table sums ["
      << static_cast<int64_t>(entry.lo) << ", "
      << static_cast<int64_t>(entry.hi) << "] / 2^24, inf=" << entry.inf;
  if (bracket != nullptr) {
    msg << "; band sum in [" << bracket->sum_lo << ", " << bracket->sum_hi
        << "], certain=" << bracket->certain;
  }
  msg << ")";
  ReportSelfCheckViolation(msg.str());
}

void IncrementalPrimeLS::RebuildWatch(LiveObject& live,
                                      const DeltaThresholds& thresholds) {
  DeltaState& d = live.delta;
  const std::span<const Point> span = WindowSpan(live);
  const size_t n = span.size();
  double pad_radius = RadiusFor(2 * n + kPadPositions);
  // Guard against ulp-level non-monotonicity of the computed radius: the
  // pad must dominate the current certificate.
  pad_radius = std::max(pad_radius, live.min_max_radius);
  const double pad_slack =
      std::max(kPadRadiusShare * std::max(pad_radius, 0.0), kMinPadSlack);

  // Carry surviving entries, and their band brackets, over untouched
  // (their brackets stay sound); entries that fall outside the new pad
  // must be uninfluenced — keep any influenced stragglers defensively so
  // counters never go stale.
  constexpr size_t kNoBand = SIZE_MAX;
  std::unordered_map<uint32_t, std::pair<size_t, size_t>> old_index;
  old_index.reserve(d.watch.size());
  for (size_t i = 0, b = 0; i < d.watch.size(); ++i) {
    old_index.emplace(d.watch[i].candidate,
                      std::make_pair(i, d.watch[i].banded ? b++ : kNoBand));
  }
  std::vector<WatchEntry> fresh;
  std::vector<BandBracket> fresh_band;
  std::unordered_set<uint32_t> selected;
  const auto carry = [&](const WatchEntry& entry, size_t b) {
    fresh.push_back(entry);
    if (b != kNoBand) fresh_band.push_back(d.band[b]);
  };
  if (pad_radius >= 0.0) {
    const double watch_radius = pad_radius + pad_slack;
    rtree_.QueryRect(live.mbr.Inflated(watch_radius), [&](const RTreeEntry& e) {
      if (live.mbr.MinDist(e.point) > watch_radius) return;
      selected.insert(e.id);
      const auto it = old_index.find(e.id);
      if (it != old_index.end()) {
        carry(d.watch[it->second.first], it->second.second);
        return;
      }
      WatchEntry entry;
      entry.candidate = e.id;
      FoldTable(entry, span);
      fresh.push_back(entry);
      size_t next = fresh_band.size();
      Settle(fresh.back(), fresh_band, &next, span, thresholds);
    });
  }
  for (size_t i = 0, b = 0; i < d.watch.size(); ++i) {
    const WatchEntry& entry = d.watch[i];
    const size_t band_index = entry.banded ? b++ : kNoBand;
    if (entry.influenced &&
        selected.find(entry.candidate) == selected.end()) {
      carry(entry, band_index);
    }
  }
  d.watch = std::move(fresh);
  d.band = std::move(fresh_band);
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
  const std::span<const Point> span = WindowSpan(live);
  const size_t n = span.size();
  live.min_max_radius = RadiusFor(n);

  const DeltaThresholds thresholds = ThresholdsFor(n);
  const simd_internal::FilterTable& table = delta_table_->table();
  const simd_internal::SlotOf slot(table);
  size_t next = 0;  // d.band[next] belongs to the next banded entry
  for (WatchEntry& entry : d.watch) {
    const Point& c = candidates_[entry.candidate];
    FoldSlot(table.fixed[PairSlot(slot, c, position)], add, entry);
    if (entry.banded) {
      BandBracket& bracket = d.band[next];
      ApplyTerm(*config_.pf, c, position, add, &bracket.certain,
                &bracket.sum_lo, &bracket.sum_hi);
      ++counters_.exact_folds;
    }
    Settle(entry, d.band, &next, span, thresholds);
  }

  // Birth or pad escape: a new object has no watch set yet, and a grown
  // certificate may admit candidates the watch set does not hold; query
  // the R-tree and decide entrants. A shrinking MBR/radius cannot escape
  // the pad, but computed radii are only monotone to a few ulps, so
  // expiries recheck rather than assume.
  if (born || live.min_max_radius > d.pad_radius ||
      ExpansionBeyond(d.pad_mbr, live.mbr) * kExpansionSafety > d.pad_slack) {
    RebuildWatch(live, thresholds);
  }

  if (self_check_) {
    const Mbr expect = Mbr::Of(span);
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
