#include "prob/prune_filter_simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(PINOCCHIO_SIMD_X86)
#include <emmintrin.h>
#endif

namespace pinocchio {
namespace prune_internal {
namespace {

// Threshold slack in nextafter steps. The sqrt-monotonicity argument needs
// ~2 steps (regions.cc uses 4 for its boxes); the remainder absorbs any
// few-ulp gap between a vector-computed q and the scalar reference q'
// (zero when the operation sequences match, <= 1 ulp under FMA
// contraction). Wider slack only widens the kUndecided band by the same
// few ulps — correctness never depends on it being tight.
constexpr int kSlackSteps = 12;

// `steps` nextafter steps from a positive normal double. Non-negative
// doubles are ordered like their bit patterns, so each step is one unit of
// the pattern (saturating at +inf, where nextafter stops too). This runs
// once per record of every prune pass, where the 24 libm calls it replaces
// were a measurable share of the phase.
double StepDown(double v, int steps) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) -
                               static_cast<uint64_t>(steps));
}

double StepUp(double v, int steps) {
  const uint64_t inf_bits =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  return std::bit_cast<double>(std::min(
      std::bit_cast<uint64_t>(v) + static_cast<uint64_t>(steps), inf_bits));
}

}  // namespace

PruneThresholds MakePruneThresholds(double radius) {
  PruneThresholds t;
  t.accept = -1.0;  // q >= 0 never accepted
  t.reject = std::numeric_limits<double>::infinity();  // q never rejected
  if (!(radius > 0.0) || !std::isfinite(radius)) return t;

  // accept: q <= fl(r*r) - slack  ==>  sqrt(q') < r by more than an ulp,
  // so the correctly rounded fl(sqrt(q')) <= r and the scalar predicate
  // accepts. Demand a normal square so the nextafter steps are genuine
  // relative slack (denormal steps are absolute and the argument breaks).
  const double r_sq = radius * radius;
  if (std::isnormal(r_sq)) t.accept = StepDown(r_sq, kSlackSteps);

  // reject: q > fl(s*s) + slack with s = succ(r)  ==>  sqrt(q') > s by
  // more than an ulp, so fl(sqrt(q')) >= s > r and the scalar predicate
  // rejects. An infinite square leaves the threshold never-firing.
  const double s =
      std::nextafter(radius, std::numeric_limits<double>::infinity());
  const double s_sq = s * s;
  if (std::isnormal(s_sq)) t.reject = StepUp(s_sq, kSlackSteps);
  return t;
}

void ClassifyPortable(const Mbr& mbr, const PruneThresholds& thresholds,
                      bool ia_empty, const Point* points, size_t n,
                      PruneLaneClass* out) {
  for (size_t i = 0; i < n; ++i) {
    const double q_min = mbr.MinDistSquared(points[i]);
    const double q_max = mbr.MaxDistSquared(points[i]);
    const bool ia_in = !ia_empty && q_max <= thresholds.accept;
    const bool ia_out = ia_empty || q_max > thresholds.reject;
    out[i] = CombineLane(q_min <= thresholds.accept, q_min > thresholds.reject,
                         ia_in, ia_out);
  }
}

#if defined(PINOCCHIO_SIMD_X86)

void ClassifySse2(const Mbr& mbr, const PruneThresholds& thresholds,
                  bool ia_empty, const Point* points, size_t n,
                  PruneLaneClass* out) {
  const __m128d min_x = _mm_set1_pd(mbr.min_x());
  const __m128d max_x = _mm_set1_pd(mbr.max_x());
  const __m128d min_y = _mm_set1_pd(mbr.min_y());
  const __m128d max_y = _mm_set1_pd(mbr.max_y());
  const __m128d zero = _mm_setzero_pd();
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
  const __m128d accept = _mm_set1_pd(thresholds.accept);
  const __m128d reject = _mm_set1_pd(thresholds.reject);

  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // AoS -> SoA: [x0 y0], [x1 y1] -> [x0 x1], [y0 y1].
    const __m128d p0 = _mm_loadu_pd(&points[i].x);
    const __m128d p1 = _mm_loadu_pd(&points[i + 1].x);
    const __m128d xs = _mm_unpacklo_pd(p0, p1);
    const __m128d ys = _mm_unpackhi_pd(p0, p1);

    // minDistSquared: dx = max({min_x - x, 0, x - max_x}), analogous dy,
    // q = fl(fl(dx*dx) + fl(dy*dy)) — Mbr::MinDistSquared's exact sequence.
    const __m128d dx = _mm_max_pd(_mm_max_pd(_mm_sub_pd(min_x, xs), zero),
                                  _mm_sub_pd(xs, max_x));
    const __m128d dy = _mm_max_pd(_mm_max_pd(_mm_sub_pd(min_y, ys), zero),
                                  _mm_sub_pd(ys, max_y));
    const __m128d q_min =
        _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy));

    // maxDistSquared: dx = max(|x - min_x|, |x - max_x|), analogous dy.
    const __m128d ax = _mm_max_pd(_mm_and_pd(_mm_sub_pd(xs, min_x), abs_mask),
                                  _mm_and_pd(_mm_sub_pd(xs, max_x), abs_mask));
    const __m128d ay = _mm_max_pd(_mm_and_pd(_mm_sub_pd(ys, min_y), abs_mask),
                                  _mm_and_pd(_mm_sub_pd(ys, max_y), abs_mask));
    const __m128d q_max =
        _mm_add_pd(_mm_mul_pd(ax, ax), _mm_mul_pd(ay, ay));

    const int nib_in = _mm_movemask_pd(_mm_cmple_pd(q_min, accept));
    const int nib_out = _mm_movemask_pd(_mm_cmpgt_pd(q_min, reject));
    const int ia_in =
        ia_empty ? 0 : _mm_movemask_pd(_mm_cmple_pd(q_max, accept));
    const int ia_out =
        ia_empty ? 0x3 : _mm_movemask_pd(_mm_cmpgt_pd(q_max, reject));
    for (int lane = 0; lane < 2; ++lane) {
      out[i + lane] =
          CombineLane((nib_in >> lane) & 1, (nib_out >> lane) & 1,
                      (ia_in >> lane) & 1, (ia_out >> lane) & 1);
    }
  }
  if (i < n) {
    ClassifyPortable(mbr, thresholds, ia_empty, points + i, n - i, out + i);
  }
}

#endif  // PINOCCHIO_SIMD_X86

}  // namespace prune_internal

void SimdPruneFilter::Classify(const Mbr& mbr, double min_max_radius,
                               bool ia_empty, std::span<const Point> points,
                               PruneLaneClass* out) const {
  const prune_internal::PruneThresholds thresholds =
      prune_internal::MakePruneThresholds(min_max_radius);
  switch (tier_) {
#if defined(PINOCCHIO_HAVE_AVX2)
    case SimdTier::kAvx2:
      prune_internal::ClassifyAvx2(mbr, thresholds, ia_empty, points.data(),
                                   points.size(), out);
      return;
#endif
#if defined(PINOCCHIO_SIMD_X86)
    case SimdTier::kSse2:
      prune_internal::ClassifySse2(mbr, thresholds, ia_empty, points.data(),
                                   points.size(), out);
      return;
#endif
    default:
      prune_internal::ClassifyPortable(mbr, thresholds, ia_empty,
                                       points.data(), points.size(), out);
      return;
  }
}

}  // namespace pinocchio
