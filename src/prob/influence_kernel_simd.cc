#include "prob/influence_kernel_simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "util/logging.h"

// PINOCCHIO_HAVE_AVX2 means the compiler took -mavx2, so it has GCC's
// cpuid.h and inline assembly.
#if defined(PINOCCHIO_HAVE_AVX2)
#include <cpuid.h>
#endif

namespace pinocchio {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative widening applied to bucket edge distances before evaluating the
/// PF there. It must dominate every rounding discrepancy between the
/// squared distance a vector lane computes (sub/mul/fma, <= 2 ulps from the
/// exact value) and the scalar reference's sqrt(dx*dx + dy*dy) (<= 3 ulps),
/// so that the scalar path's distance always falls inside the widened
/// bucket whose index the vector lane derived. 32 eps leaves a 5x margin.
constexpr double kEdgeSlack = 32 * std::numeric_limits<double>::epsilon();

/// Per-term relative slack charged against the vector accumulators at
/// decision time. Each faithful addition of same-signed terms contributes
/// at most eps = 2^-53 relative error against the running magnitude; 2^-50
/// covers it with an 8x margin.
constexpr double kSumSlackPerTerm = 0x1p-50;

/// Magnitude (relative to the influence threshold) below which a
/// per-position contribution counts as negligible; positions farther than
/// the matching distance share the overflow bucket. 2^-26 keeps the
/// accumulated overflow lower bound under thresholds for any object with
/// fewer than ~6.7e7 positions.
constexpr double kNegligibleScale = 0x1p-26;

int64_t KeyOf(double q) {
  return static_cast<int64_t>(std::bit_cast<uint64_t>(q) >>
                              simd_internal::kIndexShift);
}

double EdgeOf(int64_t key) {
  return std::bit_cast<double>(static_cast<uint64_t>(key)
                               << simd_internal::kIndexShift);
}

double NudgeDown(double v, int ulps) {
  for (int i = 0; i < ulps; ++i) v = std::nextafter(v, -kInf);
  return v;
}

double NudgeUpCapZero(double v, int ulps) {
  for (int i = 0; i < ulps; ++i) v = std::nextafter(v, kInf);
  return std::min(v, 0.0);
}

/// Computed per-position log-survival term at distance d, mirroring the
/// scalar kernel: a position with PF(d) >= 1 contributes certain influence
/// (-inf in log space).
double GAt(const ProbabilityFunction& pf, double d) {
  const double p = pf(std::max(0.0, d));
  if (p >= 1.0) return -kInf;
  if (p <= 0.0) return 0.0;
  return std::log1p(-p);
}

/// GAt for LOWER bounds, hardened at the certain-influence boundary: if
/// the probe lands within a few ulps of 1, the scalar path may still see
/// p >= 1 (immediate influence) somewhere in the bucket despite the
/// ulp-level monotonicity wobble the 2-ulp nudges otherwise cover, and
/// -inf is the only unconditionally sound lower bound there. (A lower
/// bound can only lose sharpness by being too low, never soundness.)
double GLowerAt(const ProbabilityFunction& pf, double d) {
  const double p = pf(std::max(0.0, d));
  if (p >= 1.0 - 8 * std::numeric_limits<double>::epsilon()) return -kInf;
  if (p <= 0.0) return 0.0;
  return std::log1p(-p);
}

/// Order-preserving bijection double <-> uint64 (IEEE-754 total order),
/// used to bisect the computed expm1 in ulp space.
uint64_t ToOrderedKey(double d) {
  const uint64_t b = std::bit_cast<uint64_t>(d);
  return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
}

double FromOrderedKey(uint64_t k) {
  const uint64_t b =
      (k & 0x8000000000000000ull) ? (k & ~0x8000000000000000ull) : ~k;
  return std::bit_cast<double>(b);
}

#if defined(PINOCCHIO_HAVE_AVX2)
bool OsSavesYmmState() {
  uint32_t eax, edx;
  __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (eax & 0x6) == 0x6;  // XMM and YMM state enabled in XCR0
}

/// True when the CPU and the OS run the AVX2 tier: AVX, AVX2, FMA and
/// OSXSAVE in cpuid, and YMM state enabled in XCR0.
bool CpuRunsAvx2() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  unsigned eax7, ebx7, ecx7, edx7;
  const bool avx2 = __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) &&
                    (ebx7 & (1u << 5)) != 0;
  return osxsave && avx && fma && avx2 && OsSavesYmmState();
}
#endif  // PINOCCHIO_HAVE_AVX2

SimdTier ParseTierName(const char* env) {
  const std::string value(env);
  if (value == "scalar") return SimdTier::kScalar;
  if (value == "portable") return SimdTier::kPortable;
  if (value == "avx2") return SimdTier::kAvx2;
  PINO_LOG(WARNING) << "unknown PINOCCHIO_SIMD_TIER value \"" << value
                    << "\" (expected scalar|portable|avx2); "
                       "using the detected tier";
  return DetectCpuSimdTier();
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kPortable:
      return "portable";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdTier DetectCpuSimdTier() {
#if defined(PINOCCHIO_DISABLE_SIMD)
  return SimdTier::kScalar;
#elif defined(PINOCCHIO_HAVE_AVX2)
  static const SimdTier tier =
      CpuRunsAvx2() ? SimdTier::kAvx2 : SimdTier::kPortable;
  return tier;
#else
  return SimdTier::kPortable;
#endif
}

SimdTier ResolveSimdTier() {
  const SimdTier detected = DetectCpuSimdTier();
  if (const char* requested = std::getenv("PINOCCHIO_SIMD_TIER")) {
    return std::min(ParseTierName(requested), detected);
  }
  return detected;
}

namespace simd_internal {

double AdjustedInfluenceThreshold(const FilterTable& table, uint64_t terms) {
  const double denom =
      1.0 - static_cast<double>(terms) * kSumSlackPerTerm;
  return std::nextafter(table.influence_threshold / denom, -kInf);
}

double AdjustedRejectThreshold(const FilterTable& table, uint64_t terms) {
  const double denom =
      1.0 + static_cast<double>(terms) * kSumSlackPerTerm;
  return std::nextafter(table.reject_threshold / denom, 0.0);
}

FixedThresholds ToFixed(const SpanThresholds& thresholds) {
  // kFixedScale is a power of two, so the products are exact and the one
  // rounding is the outward floor/ceil. The clamps only keep the casts
  // defined (a NaN lands on the side that certifies nothing); the finite
  // thresholds of a tau in (0, 1) lie far inside them.
  constexpr double kLimit = 0x1p61;
  const double influence = thresholds.influence * kFixedScale;
  const double reject = thresholds.reject * kFixedScale;
  return {static_cast<int64_t>(std::floor(
              influence >= -kLimit ? std::min(influence, kLimit) : -kLimit)),
          static_cast<int64_t>(std::ceil(
              reject <= kLimit ? std::max(reject, -kLimit) : kLimit))};
}

void FilterPortable(const FilterTable& table, const SpanThresholds& thresholds,
                    const Point* candidates, size_t num_candidates,
                    const Point* positions, size_t num_positions,
                    LaneOutcome* outcomes) {
  const double* g_lo = table.g_lo.data();
  const double* g_hi = table.g_hi.data();
  const SlotOf slot(table);
  const auto n = static_cast<uint32_t>(num_positions);
  for (size_t j = 0; j < num_candidates; ++j) {
    const double cx = candidates[j].x;
    const double cy = candidates[j].y;
    double acc_lo = 0.0, acc_hi = 0.0;
    uint32_t k = 0;
    bool influenced = false;
    while (k < n) {
      const uint32_t stop = std::min(n, k + kCheckChunk);
      for (; k < stop; ++k) {
        const double dx = cx - positions[k].x;
        const double dy = cy - positions[k].y;
        const int64_t idx = slot(dx * dx + dy * dy);
        acc_lo += g_lo[idx];
        acc_hi += g_hi[idx];
      }
      if (acc_hi <= thresholds.influence) {
        influenced = true;
        break;
      }
    }
    if (influenced) {
      outcomes[j] = {LaneState::kInfluenced, k};
    } else if (acc_lo >= thresholds.reject) {
      outcomes[j] = {LaneState::kNotInfluenced, n};
    } else {
      outcomes[j] = {LaneState::kUndecided, 0};
    }
  }
}

}  // namespace simd_internal

SimdInfluenceFilter::SimdInfluenceFilter(const ProbabilityFunction& pf,
                                         double tau,
                                         double early_exit_log_survival,
                                         SimdTier tier)
    : tier_(tier) {
  using simd_internal::kIndexShift;
  simd_internal::FilterTable& t = table_;
  t.influence_threshold = early_exit_log_survival;

  // Smallest log-survival at which the scalar full-scan test
  // -expm1(S) >= tau provably fails. Like the kernel constructor's
  // early-exit nudge (but in the other direction) this leans on the weak
  // monotonicity of the computed expm1; a ulp-space bisection replaces a
  // nextafter walk because near tau = 1 the boundary can sit billions of
  // ulps away from log1p(-tau). One extra ulp of headroom on top.
  const auto test_passes = [tau](double s) { return -std::expm1(s) >= tau; };
  const double lo_probe = std::isfinite(early_exit_log_survival)
                              ? early_exit_log_survival
                              : -746.0;  // expm1 == -1 for everything below
  if (test_passes(0.0)) {
    // tau <= 0: the test passes at every sum; rejection is impossible.
    t.reject_threshold = kInf;
  } else if (!test_passes(lo_probe)) {
    // tau > 1: the test fails at every sum; any finite bound certifies.
    t.reject_threshold = -std::numeric_limits<double>::max();
  } else {
    uint64_t klo = ToOrderedKey(lo_probe);  // passes
    uint64_t khi = ToOrderedKey(0.0);       // fails
    while (khi - klo > 1) {
      const uint64_t mid = klo + (khi - klo) / 2;
      if (test_passes(FromOrderedKey(mid))) {
        klo = mid;
      } else {
        khi = mid;
      }
    }
    t.reject_threshold = std::nextafter(FromOrderedKey(khi), kInf);
  }

  // Table range: [1 m, the distance beyond which one position's
  // contribution is negligible against the influence threshold]. Outside
  // the range the underflow/overflow buckets still carry sound bounds, so
  // the range only affects filter sharpness, never correctness.
  const double q_min = 1.0;
  const double negligible =
      std::max(1.0, -early_exit_log_survival) * kNegligibleScale;
  double d_far = pf.Inverse(-std::expm1(-negligible));
  if (!(d_far > 2.0)) d_far = 2.0;
  d_far = std::min(d_far * 1.05, 1e12);
  const double q_max = d_far * d_far;

  const int64_t first_key = KeyOf(q_min);
  const int64_t last_key = KeyOf(q_max);
  const auto buckets = static_cast<size_t>(last_key - first_key + 1);
  t.first_key = first_key;
  t.g_lo.resize(buckets + 2);
  t.g_hi.resize(buckets + 2);

  // Underflow bucket: d in [0, first edge].
  t.g_lo[0] = NudgeDown(GLowerAt(pf, 0.0), 2);
  t.g_hi[0] = NudgeUpCapZero(
      GAt(pf, std::sqrt(EdgeOf(first_key)) * (1.0 + kEdgeSlack)), 2);
  // Regular buckets: bounds at the (slack-widened) edges; the computed PF
  // is monotone non-increasing in d (property-tested invariant), so edge
  // values bracket every interior value up to the nudged ulps.
  for (size_t i = 0; i < buckets; ++i) {
    const int64_t key = first_key + static_cast<int64_t>(i);
    const double d_lo = std::sqrt(EdgeOf(key)) * (1.0 - kEdgeSlack);
    const double d_hi = std::sqrt(EdgeOf(key + 1)) * (1.0 + kEdgeSlack);
    t.g_lo[i + 1] = NudgeDown(GLowerAt(pf, d_lo), 2);
    t.g_hi[i + 1] = NudgeUpCapZero(GAt(pf, d_hi), 2);
  }
  // Overflow bucket: d at or beyond the last edge; log-survival terms are
  // never positive, so 0 is always a sound upper bound.
  t.g_lo[buckets + 1] = NudgeDown(
      GLowerAt(pf, std::sqrt(EdgeOf(last_key + 1)) * (1.0 - kEdgeSlack)), 2);
  t.g_hi[buckets + 1] = 0.0;

  // The same bounds on the fixed-point grid, rounded outward: floor for
  // the lower bound, ceil for the upper; scaling by a power of two is
  // exact. A finite computed log1p(-p) with p < 1 is at least
  // log(2^-53) > -37, so the +-2^6 clamps never bind on a finite bound;
  // they keep every fixed value within 2^30 (the kMaxFixedTerms argument)
  // and map a NaN to the sound extreme: -inf below, 0 above (no
  // log-survival term is positive).
  constexpr double kBound = 64.0;
  t.fixed.resize(t.g_lo.size());
  for (size_t i = 0; i < t.fixed.size(); ++i) {
    simd_internal::FixedBounds& f = t.fixed[i];
    const double lo = t.g_lo[i];
    const double hi = t.g_hi[i];
    if (lo >= -kBound) {
      f.lo = static_cast<uint64_t>(
          static_cast<int64_t>(std::floor(lo * simd_internal::kFixedScale)));
    } else {
      f.inf += 1;
    }
    if (hi == -kInf) {
      f.inf += simd_internal::FixedBounds::kSaturated;
    } else if (!std::isnan(hi)) {
      f.hi = static_cast<uint64_t>(static_cast<int64_t>(
          std::ceil(std::max(hi, -kBound) * simd_internal::kFixedScale)));
    }
  }
}

simd_internal::SpanThresholds SimdInfluenceFilter::Thresholds(
    size_t num_positions) const {
  return {simd_internal::AdjustedInfluenceThreshold(table_, num_positions),
          simd_internal::AdjustedRejectThreshold(table_, num_positions)};
}

void SimdInfluenceFilter::Filter(std::span<const Point> candidates,
                                 std::span<const Point> positions,
                                 simd_internal::LaneOutcome* outcomes) const {
  const simd_internal::SpanThresholds thresholds =
      Thresholds(positions.size());
  switch (tier_) {
#if defined(PINOCCHIO_HAVE_AVX2)
    case SimdTier::kAvx2:
      simd_internal::FilterAvx2(table_, thresholds, candidates.data(),
                                candidates.size(), positions.data(),
                                positions.size(), outcomes);
      return;
#endif
    default:
      simd_internal::FilterPortable(table_, thresholds, candidates.data(),
                                    candidates.size(), positions.data(),
                                    positions.size(), outcomes);
  }
}

}  // namespace pinocchio
