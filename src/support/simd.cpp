#include "support/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define BNLOC_SIMD_X86 1
#include <immintrin.h>
// AVX2 needs the per-function target attribute (the build stays baseline
// x86-64; dispatch is at runtime). The build system probes the toolchain
// and defines BNLOC_NO_AVX2_TARGET when the combination is unsupported.
#if (defined(__GNUC__) || defined(__clang__)) && !defined(BNLOC_NO_AVX2_TARGET)
#define BNLOC_SIMD_HAS_AVX2 1
#define BNLOC_TARGET_AVX2 __attribute__((target("avx2")))
#endif
#elif defined(__aarch64__)
#define BNLOC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace bnloc::simd {

namespace {

// --- Scalar implementations ----------------------------------------------
// These are the historical loops verbatim (beliefops / RangeKernel before
// the SIMD layer existed); the `off` path routes here, so it cannot perturb
// a single output bit.

double scalar_mul_add_floor_sum(double* dst, const double* factor,
                                double floor, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    dst[c] *= factor[c] + floor;
    total += dst[c];
  }
  return total;
}

double scalar_div_mul_add_floor_sum(double* dst, double pending,
                                    const double* factor, double floor,
                                    std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    dst[c] = dst[c] / pending * (factor[c] + floor);
    total += dst[c];
  }
  return total;
}

double scalar_sum(const double* p, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) total += p[c];
  return total;
}

void scalar_div_all(double* p, double divisor, std::size_t n) noexcept {
  for (std::size_t c = 0; c < n; ++c) p[c] /= divisor;
}

double scalar_max0(const double* p, std::size_t n) noexcept {
  double m = 0.0;
  for (std::size_t c = 0; c < n; ++c)
    if (p[c] > m) m = p[c];
  return m;
}

double scalar_l1_diff(const double* a, const double* b,
                      std::size_t n) noexcept {
  double l1 = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    const double d = a[c] - b[c];
    l1 += d < 0.0 ? -d : d;
  }
  return l1;
}

void scalar_axpy(double* out, const double* w, double m,
                 std::size_t n) noexcept {
  for (std::size_t t = 0; t < n; ++t) out[t] += m * w[t];
}

void scalar_mix(double* mass, const double* prev, double lambda,
                std::size_t n) noexcept {
  for (std::size_t c = 0; c < n; ++c)
    mass[c] = (1.0 - lambda) * mass[c] + lambda * prev[c];
}

#if defined(BNLOC_SIMD_X86)

// --- SSE2 (x86-64 baseline, always available) ----------------------------

double sse2_mul_add_floor_sum(double* dst, const double* factor, double floor,
                              std::size_t n) noexcept {
  const __m128d vfloor = _mm_set1_pd(floor);
  __m128d acc = _mm_setzero_pd();
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const __m128d f = _mm_add_pd(_mm_loadu_pd(factor + c), vfloor);
    const __m128d d = _mm_mul_pd(_mm_loadu_pd(dst + c), f);
    _mm_storeu_pd(dst + c, d);
    acc = _mm_add_pd(acc, d);
  }
  double total = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; c < n; ++c) {
    dst[c] *= factor[c] + floor;
    total += dst[c];
  }
  return total;
}

double sse2_div_mul_add_floor_sum(double* dst, double pending,
                                  const double* factor, double floor,
                                  std::size_t n) noexcept {
  const __m128d vpending = _mm_set1_pd(pending);
  const __m128d vfloor = _mm_set1_pd(floor);
  __m128d acc = _mm_setzero_pd();
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const __m128d f = _mm_add_pd(_mm_loadu_pd(factor + c), vfloor);
    const __m128d d =
        _mm_mul_pd(_mm_div_pd(_mm_loadu_pd(dst + c), vpending), f);
    _mm_storeu_pd(dst + c, d);
    acc = _mm_add_pd(acc, d);
  }
  double total = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; c < n; ++c) {
    dst[c] = dst[c] / pending * (factor[c] + floor);
    total += dst[c];
  }
  return total;
}

double sse2_sum(const double* p, std::size_t n) noexcept {
  __m128d acc = _mm_setzero_pd();
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) acc = _mm_add_pd(acc, _mm_loadu_pd(p + c));
  double total = _mm_cvtsd_f64(acc) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; c < n; ++c) total += p[c];
  return total;
}

void sse2_div_all(double* p, double divisor, std::size_t n) noexcept {
  const __m128d vd = _mm_set1_pd(divisor);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2)
    _mm_storeu_pd(p + c, _mm_div_pd(_mm_loadu_pd(p + c), vd));
  for (; c < n; ++c) p[c] /= divisor;
}

double sse2_max0(const double* p, std::size_t n) noexcept {
  __m128d acc = _mm_setzero_pd();
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) acc = _mm_max_pd(acc, _mm_loadu_pd(p + c));
  double m = _mm_cvtsd_f64(_mm_max_sd(acc, _mm_unpackhi_pd(acc, acc)));
  for (; c < n; ++c)
    if (p[c] > m) m = p[c];
  return m;
}

double sse2_l1_diff(const double* a, const double* b, std::size_t n) noexcept {
  // |x| via an unsigned-compare-free mask: max(d, -d).
  __m128d acc = _mm_setzero_pd();
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const __m128d d =
        _mm_sub_pd(_mm_loadu_pd(a + c), _mm_loadu_pd(b + c));
    acc = _mm_add_pd(acc, _mm_max_pd(d, _mm_sub_pd(_mm_setzero_pd(), d)));
  }
  double l1 = _mm_cvtsd_f64(acc) +
              _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  for (; c < n; ++c) {
    const double d = a[c] - b[c];
    l1 += d < 0.0 ? -d : d;
  }
  return l1;
}

void sse2_axpy(double* out, const double* w, double m,
               std::size_t n) noexcept {
  const __m128d vm = _mm_set1_pd(m);
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2)
    _mm_storeu_pd(out + t,
                  _mm_add_pd(_mm_loadu_pd(out + t),
                             _mm_mul_pd(vm, _mm_loadu_pd(w + t))));
  for (; t < n; ++t) out[t] += m * w[t];
}

void sse2_mix(double* mass, const double* prev, double lambda,
              std::size_t n) noexcept {
  const __m128d vl = _mm_set1_pd(lambda);
  const __m128d vo = _mm_set1_pd(1.0 - lambda);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2)
    _mm_storeu_pd(mass + c,
                  _mm_add_pd(_mm_mul_pd(vo, _mm_loadu_pd(mass + c)),
                             _mm_mul_pd(vl, _mm_loadu_pd(prev + c))));
  for (; c < n; ++c) mass[c] = (1.0 - lambda) * mass[c] + lambda * prev[c];
}

#endif  // BNLOC_SIMD_X86

#if defined(BNLOC_SIMD_HAS_AVX2)

// --- AVX2 (runtime-detected; compiled via target attribute so a baseline
// --- x86-64 build still carries it) --------------------------------------

BNLOC_TARGET_AVX2
double hsum4(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

BNLOC_TARGET_AVX2
double avx2_mul_add_floor_sum(double* dst, const double* factor, double floor,
                              std::size_t n) noexcept {
  const __m256d vfloor = _mm256_set1_pd(floor);
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d f = _mm256_add_pd(_mm256_loadu_pd(factor + c), vfloor);
    const __m256d d = _mm256_mul_pd(_mm256_loadu_pd(dst + c), f);
    _mm256_storeu_pd(dst + c, d);
    acc = _mm256_add_pd(acc, d);
  }
  double total = hsum4(acc);
  for (; c < n; ++c) {
    dst[c] *= factor[c] + floor;
    total += dst[c];
  }
  return total;
}

BNLOC_TARGET_AVX2
double avx2_div_mul_add_floor_sum(double* dst, double pending,
                                  const double* factor, double floor,
                                  std::size_t n) noexcept {
  const __m256d vpending = _mm256_set1_pd(pending);
  const __m256d vfloor = _mm256_set1_pd(floor);
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d f = _mm256_add_pd(_mm256_loadu_pd(factor + c), vfloor);
    const __m256d d =
        _mm256_mul_pd(_mm256_div_pd(_mm256_loadu_pd(dst + c), vpending), f);
    _mm256_storeu_pd(dst + c, d);
    acc = _mm256_add_pd(acc, d);
  }
  double total = hsum4(acc);
  for (; c < n; ++c) {
    dst[c] = dst[c] / pending * (factor[c] + floor);
    total += dst[c];
  }
  return total;
}

BNLOC_TARGET_AVX2
double avx2_sum(const double* p, std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4)
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(p + c));
  double total = hsum4(acc);
  for (; c < n; ++c) total += p[c];
  return total;
}

BNLOC_TARGET_AVX2
void avx2_div_all(double* p, double divisor, std::size_t n) noexcept {
  const __m256d vd = _mm256_set1_pd(divisor);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4)
    _mm256_storeu_pd(p + c, _mm256_div_pd(_mm256_loadu_pd(p + c), vd));
  for (; c < n; ++c) p[c] /= divisor;
}

BNLOC_TARGET_AVX2
double avx2_max0(const double* p, std::size_t n) noexcept {
  __m256d acc = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4)
    acc = _mm256_max_pd(acc, _mm256_loadu_pd(p + c));
  const __m128d m2 = _mm_max_pd(_mm256_castpd256_pd128(acc),
                                _mm256_extractf128_pd(acc, 1));
  double m = _mm_cvtsd_f64(_mm_max_sd(m2, _mm_unpackhi_pd(m2, m2)));
  for (; c < n; ++c)
    if (p[c] > m) m = p[c];
  return m;
}

BNLOC_TARGET_AVX2
double avx2_l1_diff(const double* a, const double* b, std::size_t n) noexcept {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + c), _mm256_loadu_pd(b + c));
    acc = _mm256_add_pd(acc, _mm256_max_pd(d, _mm256_sub_pd(zero, d)));
  }
  double l1 = hsum4(acc);
  for (; c < n; ++c) {
    const double d = a[c] - b[c];
    l1 += d < 0.0 ? -d : d;
  }
  return l1;
}

BNLOC_TARGET_AVX2
void avx2_axpy(double* out, const double* w, double m,
               std::size_t n) noexcept {
  const __m256d vm = _mm256_set1_pd(m);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4)
    _mm256_storeu_pd(out + t,
                     _mm256_add_pd(_mm256_loadu_pd(out + t),
                                   _mm256_mul_pd(vm, _mm256_loadu_pd(w + t))));
  for (; t < n; ++t) out[t] += m * w[t];
}

BNLOC_TARGET_AVX2
void avx2_mix(double* mass, const double* prev, double lambda,
              std::size_t n) noexcept {
  const __m256d vl = _mm256_set1_pd(lambda);
  const __m256d vo = _mm256_set1_pd(1.0 - lambda);
  std::size_t c = 0;
  for (; c + 4 <= n; c += 4)
    _mm256_storeu_pd(
        mass + c,
        _mm256_add_pd(_mm256_mul_pd(vo, _mm256_loadu_pd(mass + c)),
                      _mm256_mul_pd(vl, _mm256_loadu_pd(prev + c))));
  for (; c < n; ++c) mass[c] = (1.0 - lambda) * mass[c] + lambda * prev[c];
}

#endif  // BNLOC_SIMD_HAS_AVX2

#if defined(BNLOC_SIMD_NEON)

// --- NEON (aarch64 baseline) ---------------------------------------------

double neon_mul_add_floor_sum(double* dst, const double* factor, double floor,
                              std::size_t n) noexcept {
  const float64x2_t vfloor = vdupq_n_f64(floor);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const float64x2_t f = vaddq_f64(vld1q_f64(factor + c), vfloor);
    const float64x2_t d = vmulq_f64(vld1q_f64(dst + c), f);
    vst1q_f64(dst + c, d);
    acc = vaddq_f64(acc, d);
  }
  double total = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; c < n; ++c) {
    dst[c] *= factor[c] + floor;
    total += dst[c];
  }
  return total;
}

double neon_div_mul_add_floor_sum(double* dst, double pending,
                                  const double* factor, double floor,
                                  std::size_t n) noexcept {
  const float64x2_t vpending = vdupq_n_f64(pending);
  const float64x2_t vfloor = vdupq_n_f64(floor);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) {
    const float64x2_t f = vaddq_f64(vld1q_f64(factor + c), vfloor);
    const float64x2_t d =
        vmulq_f64(vdivq_f64(vld1q_f64(dst + c), vpending), f);
    vst1q_f64(dst + c, d);
    acc = vaddq_f64(acc, d);
  }
  double total = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; c < n; ++c) {
    dst[c] = dst[c] / pending * (factor[c] + floor);
    total += dst[c];
  }
  return total;
}

double neon_sum(const double* p, std::size_t n) noexcept {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) acc = vaddq_f64(acc, vld1q_f64(p + c));
  double total = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; c < n; ++c) total += p[c];
  return total;
}

void neon_div_all(double* p, double divisor, std::size_t n) noexcept {
  const float64x2_t vd = vdupq_n_f64(divisor);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2)
    vst1q_f64(p + c, vdivq_f64(vld1q_f64(p + c), vd));
  for (; c < n; ++c) p[c] /= divisor;
}

double neon_max0(const double* p, std::size_t n) noexcept {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2) acc = vmaxq_f64(acc, vld1q_f64(p + c));
  double m = vgetq_lane_f64(acc, 0);
  const double m1 = vgetq_lane_f64(acc, 1);
  if (m1 > m) m = m1;
  for (; c < n; ++c)
    if (p[c] > m) m = p[c];
  return m;
}

double neon_l1_diff(const double* a, const double* b, std::size_t n) noexcept {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2)
    acc = vaddq_f64(acc,
                    vabdq_f64(vld1q_f64(a + c), vld1q_f64(b + c)));
  double l1 = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; c < n; ++c) {
    const double d = a[c] - b[c];
    l1 += d < 0.0 ? -d : d;
  }
  return l1;
}

void neon_axpy(double* out, const double* w, double m,
               std::size_t n) noexcept {
  const float64x2_t vm = vdupq_n_f64(m);
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2)
    vst1q_f64(out + t,
              vaddq_f64(vld1q_f64(out + t),
                        vmulq_f64(vm, vld1q_f64(w + t))));
  for (; t < n; ++t) out[t] += m * w[t];
}

void neon_mix(double* mass, const double* prev, double lambda,
              std::size_t n) noexcept {
  const float64x2_t vl = vdupq_n_f64(lambda);
  const float64x2_t vo = vdupq_n_f64(1.0 - lambda);
  std::size_t c = 0;
  for (; c + 2 <= n; c += 2)
    vst1q_f64(mass + c,
              vaddq_f64(vmulq_f64(vo, vld1q_f64(mass + c)),
                        vmulq_f64(vl, vld1q_f64(prev + c))));
  for (; c < n; ++c) mass[c] = (1.0 - lambda) * mass[c] + lambda * prev[c];
}

#endif  // BNLOC_SIMD_NEON

// --- Dispatch table -------------------------------------------------------

struct Ops {
  Mode mode;
  const char* name;
  double (*mul_add_floor_sum)(double*, const double*, double,
                              std::size_t) noexcept;
  double (*div_mul_add_floor_sum)(double*, double, const double*, double,
                                  std::size_t) noexcept;
  double (*sum)(const double*, std::size_t) noexcept;
  void (*div_all)(double*, double, std::size_t) noexcept;
  double (*max0)(const double*, std::size_t) noexcept;
  double (*l1_diff)(const double*, const double*, std::size_t) noexcept;
  void (*axpy)(double*, const double*, double, std::size_t) noexcept;
  void (*mix)(double*, const double*, double, std::size_t) noexcept;
};

constexpr Ops kScalarOps{Mode::scalar,
                         "scalar",
                         scalar_mul_add_floor_sum,
                         scalar_div_mul_add_floor_sum,
                         scalar_sum,
                         scalar_div_all,
                         scalar_max0,
                         scalar_l1_diff,
                         scalar_axpy,
                         scalar_mix};

#if defined(BNLOC_SIMD_X86)
constexpr Ops kSse2Ops{Mode::sse2,
                       "sse2",
                       sse2_mul_add_floor_sum,
                       sse2_div_mul_add_floor_sum,
                       sse2_sum,
                       sse2_div_all,
                       sse2_max0,
                       sse2_l1_diff,
                       sse2_axpy,
                       sse2_mix};
#endif
#if defined(BNLOC_SIMD_HAS_AVX2)
constexpr Ops kAvx2Ops{Mode::avx2,
                       "avx2",
                       avx2_mul_add_floor_sum,
                       avx2_div_mul_add_floor_sum,
                       avx2_sum,
                       avx2_div_all,
                       avx2_max0,
                       avx2_l1_diff,
                       avx2_axpy,
                       avx2_mix};
#endif
#if defined(BNLOC_SIMD_NEON)
constexpr Ops kNeonOps{Mode::neon,
                       "neon",
                       neon_mul_add_floor_sum,
                       neon_div_mul_add_floor_sum,
                       neon_sum,
                       neon_div_all,
                       neon_max0,
                       neon_l1_diff,
                       neon_axpy,
                       neon_mix};
#endif

bool avx2_available() noexcept {
#if defined(BNLOC_SIMD_HAS_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Best available implementation for `want` on this build + CPU.
const Ops* select(Mode want) noexcept {
  switch (want) {
    case Mode::scalar:
      return &kScalarOps;
#if defined(BNLOC_SIMD_X86)
    case Mode::sse2:
      return &kSse2Ops;
#endif
#if defined(BNLOC_SIMD_HAS_AVX2)
    case Mode::avx2:
      if (avx2_available()) return &kAvx2Ops;
      return &kSse2Ops;
#endif
#if defined(BNLOC_SIMD_NEON)
    case Mode::neon:
      return &kNeonOps;
#endif
    case Mode::auto_detect:
    default:
      break;
  }
#if defined(BNLOC_SIMD_HAS_AVX2)
  if (avx2_available()) return &kAvx2Ops;
#endif
#if defined(BNLOC_SIMD_X86)
  return &kSse2Ops;
#elif defined(BNLOC_SIMD_NEON)
  return &kNeonOps;
#else
  return &kScalarOps;
#endif
}

Mode mode_from_env() noexcept {
  const char* env = std::getenv("BNLOC_SIMD");
  if (env == nullptr || *env == '\0') return Mode::auto_detect;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0 ||
      std::strcmp(env, "0") == 0)
    return Mode::scalar;
  if (std::strcmp(env, "sse2") == 0) return Mode::sse2;
  if (std::strcmp(env, "avx2") == 0) return Mode::avx2;
  if (std::strcmp(env, "neon") == 0) return Mode::neon;
  return Mode::auto_detect;
}

std::atomic<const Ops*> g_ops{nullptr};

const Ops& active() noexcept {
  const Ops* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = select(mode_from_env());
    // Benign race: every thread resolves the same table.
    g_ops.store(ops, std::memory_order_release);
  }
  return *ops;
}

}  // namespace

void set_mode(Mode mode) noexcept {
  g_ops.store(select(mode), std::memory_order_release);
}

Mode active_mode() noexcept { return active().mode; }

const char* active_name() noexcept { return active().name; }

double mul_add_floor_sum(double* dst, const double* factor, double floor,
                         std::size_t n) noexcept {
  return active().mul_add_floor_sum(dst, factor, floor, n);
}

double div_mul_add_floor_sum(double* dst, double pending, const double* factor,
                             double floor, std::size_t n) noexcept {
  return active().div_mul_add_floor_sum(dst, pending, factor, floor, n);
}

double sum(const double* p, std::size_t n) noexcept {
  return active().sum(p, n);
}

void div_all(double* p, double divisor, std::size_t n) noexcept {
  active().div_all(p, divisor, n);
}

double max0(const double* p, std::size_t n) noexcept {
  return active().max0(p, n);
}

double l1_diff(const double* a, const double* b, std::size_t n) noexcept {
  return active().l1_diff(a, b, n);
}

void axpy(double* out, const double* w, double m, std::size_t n) noexcept {
  active().axpy(out, w, m, n);
}

void mix(double* mass, const double* prev, double lambda,
         std::size_t n) noexcept {
  active().mix(mass, prev, lambda, n);
}

}  // namespace bnloc::simd
