// 4-lane AVX2+FMA tier of the filter-and-refine influence kernel. This is
// the one translation unit compiled with -mavx2 -mfma; it is only ever
// entered after the runtime cpuid probe confirmed the CPU executes AVX2
// (see DetectCpuSimdTier), so the -m flags cannot leak illegal
// instructions into code that runs elsewhere.

#include "prob/influence_kernel_simd.h"

#if defined(PINOCCHIO_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

namespace pinocchio {
namespace simd_internal {
namespace {

/// Clamped table indices for 4 squared distances: (bits >> kIndexShift) -
/// (first_key - 1), clamped to [0, last]. The shift is logical, which is
/// safe because squared distances are non-negative (sign bit clear), and
/// q = NaN (impossible here: sub/mul/fma of finite inputs overflows to
/// +inf, never NaN) would still land in the overflow bucket via clamping.
inline __m256i TableIndices(__m256d q, __m256i bias, __m256i last) {
  const __m256i key =
      _mm256_srli_epi64(_mm256_castpd_si256(q), kIndexShift);
  __m256i idx = _mm256_sub_epi64(key, bias);
  // max(idx, 0): keep idx where idx > 0, else 0.
  idx = _mm256_and_si256(idx, _mm256_cmpgt_epi64(idx, _mm256_setzero_si256()));
  // min(idx, last): where idx > last, replace with last.
  const __m256i over = _mm256_cmpgt_epi64(idx, last);
  return _mm256_blendv_epi8(idx, last, over);
}

}  // namespace

void FilterAvx2(const FilterTable& table, const SpanThresholds& thresholds,
                const Point* candidates, size_t num_candidates,
                const Point* positions, size_t num_positions,
                LaneOutcome* outcomes) {
  const double* g_lo = table.g_lo.data();
  const double* g_hi = table.g_hi.data();
  const __m256i bias = _mm256_set1_epi64x(table.first_key - 1);
  const __m256i last =
      _mm256_set1_epi64x(static_cast<int64_t>(table.g_lo.size()) - 1);
  const auto n = static_cast<uint32_t>(num_positions);
  const __m256d thr = _mm256_set1_pd(thresholds.influence);
  const __m256d rthr = _mm256_set1_pd(thresholds.reject);

  size_t j = 0;
  for (; j + 4 <= num_candidates; j += 4) {
    const __m256d cx = _mm256_set_pd(candidates[j + 3].x, candidates[j + 2].x,
                                     candidates[j + 1].x, candidates[j].x);
    const __m256d cy = _mm256_set_pd(candidates[j + 3].y, candidates[j + 2].y,
                                     candidates[j + 1].y, candidates[j].y);
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    // All-ones while a lane is still scanning; a decided (influenced) lane
    // freezes its accumulators conceptually — we simply record its chunk
    // index and ignore later accumulation for it.
    uint32_t seen[4] = {n, n, n, n};
    int decided_mask = 0;
    uint32_t k = 0;
    while (k < n) {
      const uint32_t stop = std::min(n, k + kCheckChunk);
      for (; k < stop; ++k) {
        const __m256d px = _mm256_set1_pd(positions[k].x);
        const __m256d py = _mm256_set1_pd(positions[k].y);
        const __m256d dx = _mm256_sub_pd(cx, px);
        const __m256d dy = _mm256_sub_pd(cy, py);
        const __m256d q =
            _mm256_fmadd_pd(dx, dx, _mm256_mul_pd(dy, dy));
        const __m256i idx = TableIndices(q, bias, last);
        acc_lo = _mm256_add_pd(
            acc_lo, _mm256_i64gather_pd(g_lo, idx, sizeof(double)));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_i64gather_pd(g_hi, idx, sizeof(double)));
      }
      const int crossed = _mm256_movemask_pd(
          _mm256_cmp_pd(acc_hi, thr, _CMP_LE_OQ));
      int fresh = crossed & ~decided_mask;
      while (fresh != 0) {
        const int lane = __builtin_ctz(static_cast<unsigned>(fresh));
        fresh &= fresh - 1;
        seen[lane] = k;
      }
      decided_mask |= crossed;
      if (decided_mask == 0xF) break;
    }
    const int rejected = _mm256_movemask_pd(
        _mm256_cmp_pd(acc_lo, rthr, _CMP_GE_OQ));
    for (int lane = 0; lane < 4; ++lane) {
      if ((decided_mask & (1 << lane)) != 0) {
        outcomes[j + lane] = {LaneState::kInfluenced, seen[lane]};
      } else if ((rejected & (1 << lane)) != 0) {
        outcomes[j + lane] = {LaneState::kNotInfluenced, n};
      } else {
        outcomes[j + lane] = {LaneState::kUndecided, 0};
      }
    }
  }
  if (j < num_candidates) {
    FilterPortable(table, thresholds, candidates + j, num_candidates - j,
                   positions, num_positions, outcomes + j);
  }
}

}  // namespace simd_internal
}  // namespace pinocchio

#endif  // PINOCCHIO_HAVE_AVX2
