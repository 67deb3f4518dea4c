// SIMD filter-and-refine companion to the influence kernel.
//
// The hot question of every validation loop is "does candidate c influence
// object O", i.e. whether the log-survival sum S = sum_i log1p(-PF(dist))
// crosses the tau-derived thresholds. The scalar kernel answers it exactly;
// this filter answers it *conservatively* in vector registers, batching
// several candidates (lanes) against one object's contiguous position span:
//
//   * Per position it computes squared candidate-position distances and
//     looks the squared distance up in a precomputed bucket table holding
//     certified lower/upper bounds on the per-position log-survival term
//     g(d) = log1p(-PF(d)). Buckets are indexed straight off the floating
//     point bit pattern of d^2 (piecewise-log-spaced, a shift and a
//     subtract per lane), so no pow/log/sqrt runs in the inner loop.
//   * Accumulated per-lane bounds [L, U] bracket S with explicit epsilon
//     slack for every rounding discrepancy between the vector arithmetic
//     and the scalar reference (FMA contraction, bucket edges, summation
//     order). U <= adjusted influence threshold certifies the scalar
//     kernel would decide "influenced" (Lemma 4 / the full-scan test);
//     L >= adjusted reject threshold certifies "not influenced".
//   * Lanes whose bracket straddles a threshold — a band a few percent
//     wide around the decision boundary — are routed to the exact scalar
//     Decide. Decisions are therefore bit-identical to the scalar
//     reference on every input, the invariant the self-check mode and the
//     differential fuzz harness enforce.
//
// Tier selection is a runtime decision (a cpuid probe for AVX2+FMA, the
// portable table filter on every other CPU) taken once per process and
// captured by each InfluenceKernel at construction, so worker threads
// constructing per-solve kernels all agree. One environment override,
// PINOCCHIO_SIMD_TIER=scalar|portable|avx2, caps the tier: scalar turns
// the filter off (the pure scalar kernel, the fuzz matrix's reference
// lane), the others serve A/B comparisons.

#ifndef PINOCCHIO_PROB_INFLUENCE_KERNEL_SIMD_H_
#define PINOCCHIO_PROB_INFLUENCE_KERNEL_SIMD_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/point.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Vector width tiers, ordered weakest to widest.
enum class SimdTier : uint8_t {
  kScalar = 0,    ///< no filter: DecideMany loops the scalar Decide
  kPortable = 1,  ///< table filter in plain C++ (any architecture)
  kAvx2 = 2,      ///< 4-lane AVX2+FMA filter (runtime cpuid-gated)
};

/// Short lowercase tier name ("scalar", "portable", "avx2").
const char* SimdTierName(SimdTier tier);

/// Widest tier this build + CPU can execute (cpuid/xgetbv probe, cached).
SimdTier DetectCpuSimdTier();

/// DetectCpuSimdTier() clamped by the PINOCCHIO_SIMD_TIER override (see
/// file comment); an unknown value logs a warning and is ignored.
/// Re-reads the environment on every call; kernels capture the result at
/// construction, which is what "dispatch decided once per kernel" means.
SimdTier ResolveSimdTier();

namespace simd_internal {

/// Bucket index = (bit pattern of d^2) >> kIndexShift, i.e. exponent plus
/// the top 4 mantissa bits: 16 buckets per octave, <= 3.2% relative width
/// in squared-distance space (<= 1.6% in distance).
inline constexpr int kIndexShift = 48;

/// Positions between threshold checks; also the granularity of the
/// positions_seen counter for vector-decided lanes.
inline constexpr uint32_t kCheckChunk = 8;

/// Quanta per unit of log-survival in FilterTable::fixed: bounds there are
/// g_lo and g_hi rounded outward onto multiples of 2^-24.
inline constexpr double kFixedScale = 0x1p24;

/// Fixed-point sums over at most this many terms read exactly. A finite
/// fixed bound is at most 2^30 in magnitude, so such a sum stays below
/// 2^62, and each -inf count below 2^32.
inline constexpr uint64_t kMaxFixedTerms = UINT32_MAX;

/// One slot's bounds on the fixed-point grid, for sums that must cancel
/// exactly when a term is added and later subtracted (the stream's delta
/// brackets, core/incremental.h). `lo` and `hi` hold floor(g_lo * scale)
/// and ceil(g_hi * scale) as two's-complement uint64, so sums wrap instead
/// of overflowing and read back as int64 while kMaxFixedTerms holds. A -inf
/// bound adds 0 there and is counted in `inf` instead: 1 for a -inf lower
/// bound, plus kSaturated for a -inf upper bound (every position in the
/// slot has PF >= 1, which alone decides influence).
struct FixedBounds {
  static constexpr uint64_t kSaturated = uint64_t{1} << 32;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t inf = 0;
};

/// The per-(PF, tau) bound table shared by all filter tiers.
struct FilterTable {
  /// Table index of squared distance q is
  ///   clamp((int64(bits(q)) >> kIndexShift) - first_key + 1, 0, size - 1)
  /// where slot 0 is the underflow bucket (d below the table range,
  /// including d = 0) and the last slot the overflow bucket (PF
  /// negligible). Monotonicity of the IEEE-754 total order on
  /// non-negative doubles makes this mapping order-preserving in q.
  int64_t first_key = 0;
  /// Certified bounds on the computed scalar log1p(-PF(d)) for any
  /// distance whose squared value maps into the slot (edge slack covers
  /// vector-vs-scalar rounding of d^2 itself). g_lo may be -inf (PF = 1).
  std::vector<double> g_lo;
  std::vector<double> g_hi;
  /// g_lo and g_hi per slot on the fixed-point grid (see FixedBounds).
  std::vector<FixedBounds> fixed;
  /// Crossing this with the upper bound certifies the scalar early-exit /
  /// full-scan influence test (the kernel's early_exit_log_survival).
  double influence_threshold = 0.0;
  /// Log-survival at or above which the scalar full-scan test provably
  /// rejects (nudged past faithful-rounding slack of expm1, mirroring the
  /// kernel constructor's treatment of the influence side).
  double reject_threshold = 0.0;
};

/// Table slot of a squared distance q: the FilterTable::first_key formula,
/// with the bias and the last slot read from the table once. The portable
/// filter and the stream's fixed-point fold index through it; the AVX2
/// tier computes the same formula four lanes at a time.
class SlotOf {
 public:
  explicit SlotOf(const FilterTable& table)
      : bias_(table.first_key - 1),
        last_(static_cast<int64_t>(table.g_lo.size()) - 1) {}

  int64_t operator()(double q) const {
    return std::clamp<int64_t>(
        (static_cast<int64_t>(std::bit_cast<uint64_t>(q)) >> kIndexShift) -
            bias_,
        0, last_);
  }

 private:
  int64_t bias_;
  int64_t last_;
};

/// influence_threshold widened for `terms` accumulated vector additions:
/// U <= AdjustedInfluenceThreshold(...) implies the true sum crossed.
double AdjustedInfluenceThreshold(const FilterTable& table, uint64_t terms);
/// reject_threshold narrowed likewise: L >= AdjustedRejectThreshold(...)
/// implies the true sum never reaches the influence region.
double AdjustedRejectThreshold(const FilterTable& table, uint64_t terms);

/// Both adjusted thresholds of one n-position span, computed once per
/// Filter call. The influence threshold only tightens as the term count
/// grows, so its n-term value certifies every chunk of the span.
struct SpanThresholds {
  double influence = 0.0;
  double reject = 0.0;
};

/// A span's thresholds on the fixed-point grid: influence rounded down,
/// reject rounded up. An exact fixed-point sum of FixedBounds::hi at or
/// below `influence` certifies what SpanThresholds::influence certifies,
/// and a sum of FixedBounds::lo (with no -inf bound) at or above `reject`
/// certifies rejection, for spans of at most kMaxFixedTerms positions.
struct FixedThresholds {
  int64_t influence = 0;
  int64_t reject = 0;
};
FixedThresholds ToFixed(const SpanThresholds& thresholds);

enum class LaneState : uint8_t {
  kUndecided = 0,     ///< bracket straddles a threshold: refine in scalar
  kInfluenced = 1,    ///< upper bound certified the influence test
  kNotInfluenced = 2  ///< lower bound certified rejection
};

struct LaneOutcome {
  LaneState state = LaneState::kUndecided;
  /// Positions consumed (chunk-granular; == span size unless the lane's
  /// whole block early-exited). Meaningless for kUndecided lanes.
  uint32_t positions_seen = 0;
};

/// Tier entry points. Each fills outcomes[0, num_candidates); candidates
/// and positions are the same spans the scalar DecideMany receives, and
/// `thresholds` are the positions span's. The AVX2 variant exists only
/// when CMake defines PINOCCHIO_HAVE_AVX2, i.e. when the separately-flagged
/// AVX2 translation unit is part of the build; callers go through
/// SimdInfluenceFilter::Filter which dispatches on the probed tier.
void FilterPortable(const FilterTable& table, const SpanThresholds& thresholds,
                    const Point* candidates, size_t num_candidates,
                    const Point* positions, size_t num_positions,
                    LaneOutcome* outcomes);
#if defined(PINOCCHIO_HAVE_AVX2)
void FilterAvx2(const FilterTable& table, const SpanThresholds& thresholds,
                const Point* candidates, size_t num_candidates,
                const Point* positions, size_t num_positions,
                LaneOutcome* outcomes);
#endif

}  // namespace simd_internal

/// Immutable filter state for one (PF, tau): the bound table plus the tier
/// chosen at construction. Built by InfluenceKernel when the resolved tier
/// is not kScalar; safe to share across threads (read-only after build).
class SimdInfluenceFilter {
 public:
  /// `early_exit_log_survival` is the kernel's certified influence
  /// threshold; `tier` must come from ResolveSimdTier().
  SimdInfluenceFilter(const ProbabilityFunction& pf, double tau,
                      double early_exit_log_survival, SimdTier tier);

  SimdTier tier() const { return tier_; }
  const simd_internal::FilterTable& table() const { return table_; }

  /// Runs the vector filter: every candidate lane against one object's
  /// position span. `outcomes` must hold candidates.size() slots.
  void Filter(std::span<const Point> candidates,
              std::span<const Point> positions,
              simd_internal::LaneOutcome* outcomes) const;

  /// Both adjusted thresholds of an n-position span (a division and a
  /// nextafter each, so callers walking many spans compute them once per
  /// distinct n).
  simd_internal::SpanThresholds Thresholds(size_t num_positions) const;

  /// One candidate against one span under that span's Thresholds(): the
  /// portable one-lane loop on every tier, as a one-candidate Filter()
  /// runs it (the vector tiers hand lanes past their last full vector to
  /// it).
  simd_internal::LaneOutcome FilterOne(
      const Point& candidate, std::span<const Point> positions,
      const simd_internal::SpanThresholds& thresholds) const {
    simd_internal::LaneOutcome outcome;
    simd_internal::FilterPortable(table_, thresholds, &candidate, 1,
                                  positions.data(), positions.size(),
                                  &outcome);
    return outcome;
  }

 private:
  SimdTier tier_;
  simd_internal::FilterTable table_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_PROB_INFLUENCE_KERNEL_SIMD_H_
