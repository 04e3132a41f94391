#include "fft/kernels.hpp"

#include <atomic>
#include <cassert>

/*
 * LR_SIMD_LOOP marks a loop whose iterations are independent and whose
 * memory accesses are unit-stride, so the compiler may vectorize with
 * reassociation. The annotation requires -fopenmp-simd (added by the
 * build when LIGHTRIDGE_SIMD is on); plain auto-vectorization still
 * applies when the pragma is absent.
 */
#if defined(LIGHTRIDGE_SIMD)
#define LR_SIMD_LOOP _Pragma("omp simd")
#else
#define LR_SIMD_LOOP
#endif

namespace lightridge {

namespace {

std::atomic<FftKernelMode> &
kernelModeFlag()
{
    static std::atomic<FftKernelMode> mode{
        simdKernelsCompiled() ? FftKernelMode::Simd : FftKernelMode::Scalar};
    return mode;
}

} // namespace

bool
simdKernelsCompiled()
{
#if defined(LIGHTRIDGE_SIMD)
    return true;
#else
    return false;
#endif
}

FftKernelMode
fftKernelMode()
{
    return kernelModeFlag().load(std::memory_order_relaxed);
}

FftKernelMode
setFftKernelMode(FftKernelMode mode)
{
    if (mode == FftKernelMode::Simd && !simdKernelsCompiled())
        mode = FftKernelMode::Scalar;
    kernelModeFlag().store(mode, std::memory_order_relaxed);
    return mode;
}

namespace kernels {

void
radix3Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    // W_3 = -1/2 - j*sin(pi/3) (forward sign convention).
    constexpr Real kSin60 = Real(0.866025403784438646763723170752936183);
    const Real *t1r = tw_re, *t1i = tw_im;
    const Real *t2r = tw_re + m, *t2i = tw_im + m;
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        Real a0r = re[k], a0i = im[k];
        Real x1r = re[m + k], x1i = im[m + k];
        Real x2r = re[2 * m + k], x2i = im[2 * m + k];
        Real a1r = x1r * t1r[k] - x1i * t1i[k];
        Real a1i = x1r * t1i[k] + x1i * t1r[k];
        Real a2r = x2r * t2r[k] - x2i * t2i[k];
        Real a2i = x2r * t2i[k] + x2i * t2r[k];
        Real sr = a1r + a2r, si = a1i + a2i;
        Real dr = (a1r - a2r) * kSin60, di = (a1i - a2i) * kSin60;
        Real mr = a0r - Real(0.5) * sr, mi = a0i - Real(0.5) * si;
        re[k] = a0r + sr;
        im[k] = a0i + si;
        re[m + k] = mr + di;
        im[m + k] = mi - dr;
        re[2 * m + k] = mr - di;
        im[2 * m + k] = mi + dr;
    }
}

void
radix4Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
           std::size_t m)
{
    const Real *t1r = tw_re, *t1i = tw_im;
    const Real *t2r = tw_re + m, *t2i = tw_im + m;
    const Real *t3r = tw_re + 2 * m, *t3i = tw_im + 2 * m;
    LR_SIMD_LOOP
    for (std::size_t k = 0; k < m; ++k) {
        Real a0r = re[k], a0i = im[k];
        Real x1r = re[m + k], x1i = im[m + k];
        Real x2r = re[2 * m + k], x2i = im[2 * m + k];
        Real x3r = re[3 * m + k], x3i = im[3 * m + k];
        Real a1r = x1r * t1r[k] - x1i * t1i[k];
        Real a1i = x1r * t1i[k] + x1i * t1r[k];
        Real a2r = x2r * t2r[k] - x2i * t2i[k];
        Real a2i = x2r * t2i[k] + x2i * t2r[k];
        Real a3r = x3r * t3r[k] - x3i * t3i[k];
        Real a3i = x3r * t3i[k] + x3i * t3r[k];
        // 4-point DFT with W_4 = -j (forward sign convention).
        Real s0r = a0r + a2r, s0i = a0i + a2i;
        Real s1r = a0r - a2r, s1i = a0i - a2i;
        Real s2r = a1r + a3r, s2i = a1i + a3i;
        Real s3r = a1r - a3r, s3i = a1i - a3i;
        re[k] = s0r + s2r;
        im[k] = s0i + s2i;
        re[m + k] = s1r + s3i;
        im[m + k] = s1i - s3r;
        re[2 * m + k] = s0r - s2r;
        im[2 * m + k] = s0i - s2i;
        re[3 * m + k] = s1r - s3i;
        im[3 * m + k] = s1i + s3r;
    }
}

namespace {

/** In-place 4-point forward DFT (W_4 = -j) of re/im[0..3]. */
inline void
dft4(Real (&re)[4], Real (&im)[4])
{
    Real s0r = re[0] + re[2], s0i = im[0] + im[2];
    Real s1r = re[0] - re[2], s1i = im[0] - im[2];
    Real s2r = re[1] + re[3], s2i = im[1] + im[3];
    Real s3r = re[1] - re[3], s3i = im[1] - im[3];
    re[0] = s0r + s2r;
    im[0] = s0i + s2i;
    re[1] = s1r + s3i;
    im[1] = s1i - s3r;
    re[2] = s0r - s2r;
    im[2] = s0i - s2i;
    re[3] = s1r - s3i;
    im[3] = s1i + s3r;
}

/** Load samples first, first + stride, ... (4 of them) into locals. */
inline void
load4(const Real *in_re, const Real *in_im, std::size_t first,
      std::size_t stride, Real (&re)[4], Real (&im)[4])
{
    for (std::size_t t = 0; t < 4; ++t) {
        re[t] = in_re[first + t * stride];
        im[t] = in_im[first + t * stride];
    }
}

// The leaf codelets. dftLeaves() instantiates one loop per length with
// the codelet inlined into it.

inline void
leaf1(const Real *in_re, const Real *in_im, std::size_t, Real *out_re,
      Real *out_im)
{
    out_re[0] = in_re[0];
    out_im[0] = in_im[0];
}

inline void
leaf2(const Real *in_re, const Real *in_im, std::size_t step, Real *out_re,
      Real *out_im)
{
    Real a0r = in_re[0], a0i = in_im[0];
    Real a1r = in_re[step], a1i = in_im[step];
    out_re[0] = a0r + a1r;
    out_im[0] = a0i + a1i;
    out_re[1] = a0r - a1r;
    out_im[1] = a0i - a1i;
}

inline void
leaf4(const Real *in_re, const Real *in_im, std::size_t step, Real *out_re,
      Real *out_im)
{
    Real re[4], im[4];
    load4(in_re, in_im, 0, step, re, im);
    dft4(re, im);
    for (std::size_t k = 0; k < 4; ++k) {
        out_re[k] = re[k];
        out_im[k] = im[k];
    }
}

inline void
leaf8(const Real *in_re, const Real *in_im, std::size_t step, Real *out_re,
      Real *out_im)
{
    // Radix-2 DIT over two 4-point DFTs: E = DFT4(x0, x2, x4, x6),
    // O = DFT4(x1, x3, x5, x7), X[k] = E[k] + W_8^k O[k] and
    // X[k+4] = E[k] - W_8^k O[k], with W_8 = (1 - j)/sqrt(2).
    constexpr Real kHalfSqrt2 = Real(0.707106781186547524400844362104849039);
    Real er[4], ei[4], orr[4], oi[4];
    load4(in_re, in_im, 0, 2 * step, er, ei);
    load4(in_re, in_im, step, 2 * step, orr, oi);
    dft4(er, ei);
    dft4(orr, oi);
    Real tr[4], ti[4];
    tr[0] = orr[0];
    ti[0] = oi[0];
    tr[1] = (orr[1] + oi[1]) * kHalfSqrt2; // * W_8
    ti[1] = (oi[1] - orr[1]) * kHalfSqrt2;
    tr[2] = oi[2]; // * W_8^2 = -j
    ti[2] = -orr[2];
    tr[3] = (oi[3] - orr[3]) * kHalfSqrt2; // * W_8^3 = -(1 + j)/sqrt(2)
    ti[3] = -(orr[3] + oi[3]) * kHalfSqrt2;
    for (std::size_t k = 0; k < 4; ++k) {
        out_re[k] = er[k] + tr[k];
        out_im[k] = ei[k] + ti[k];
        out_re[k + 4] = er[k] - tr[k];
        out_im[k + 4] = ei[k] - ti[k];
    }
}

using LeafFn = void (*)(const Real *, const Real *, std::size_t, Real *,
                        Real *);

template <std::size_t N, LeafFn Leaf>
void
runLeaves(std::size_t count, const Real *in_re, const Real *in_im,
          std::size_t step, std::size_t block_step, Real *out_re,
          Real *out_im)
{
    for (std::size_t b = 0; b < count; ++b)
        Leaf(in_re + b * block_step, in_im + b * block_step, step,
             out_re + b * N, out_im + b * N);
}

} // namespace

void
dftLeaves(std::size_t n, std::size_t count, const Real *in_re,
          const Real *in_im, std::size_t step, std::size_t block_step,
          Real *out_re, Real *out_im)
{
    switch (n) {
    case 1:
        runLeaves<1, leaf1>(count, in_re, in_im, step, block_step, out_re,
                            out_im);
        return;
    case 2:
        runLeaves<2, leaf2>(count, in_re, in_im, step, block_step, out_re,
                            out_im);
        return;
    case 4:
        runLeaves<4, leaf4>(count, in_re, in_im, step, block_step, out_re,
                            out_im);
        return;
    default:
        assert(n == 8);
        runLeaves<8, leaf8>(count, in_re, in_im, step, block_step, out_re,
                            out_im);
        return;
    }
}

void
cmulSoa(Real *out_re, Real *out_im, const Real *a_re, const Real *a_im,
        const Real *b_re, const Real *b_im, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a_re[i], ai = a_im[i];
        Real br = b_re[i], bi = b_im[i];
        out_re[i] = ar * br - ai * bi;
        out_im[i] = ar * bi + ai * br;
    }
}

void
caxpySoa(Real *y_re, Real *y_im, const Real *x_re, const Real *x_im,
         Real c_re, Real c_im, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real xr = x_re[i], xi = x_im[i];
        y_re[i] += xr * c_re - xi * c_im;
        y_im[i] += xr * c_im + xi * c_re;
    }
}

void
cmulInterleaved(Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br - ai * bi;
        a[2 * i + 1] = ar * bi + ai * br;
    }
}

void
cmulConjInterleaved(Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br + ai * bi;
        a[2 * i + 1] = ai * br - ar * bi;
    }
}

void
cmulInterleavedOut(Real *dst, const Real *a, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i], ai = a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        dst[2 * i] = ar * br - ai * bi;
        dst[2 * i + 1] = ar * bi + ai * br;
    }
}

void
cmulScaledInterleaved(Real *dst, const Real *a, Real scale, const Real *b,
                      std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = scale * a[2 * i], ai = scale * a[2 * i + 1];
        Real br = b[2 * i], bi = b[2 * i + 1];
        dst[2 * i] = ar * br - ai * bi;
        dst[2 * i + 1] = ar * bi + ai * br;
    }
}

void
cmulConjScaledInterleaved(Real *a, Real scale, const Real *b, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        Real ar = a[2 * i] * scale, ai = a[2 * i + 1] * scale;
        Real br = b[2 * i], bi = b[2 * i + 1];
        a[2 * i] = ar * br + ai * bi;
        a[2 * i + 1] = ai * br - ar * bi;
    }
}

void
accumulatePhaseGrad(Real *grad, const Real *g, const Real *u, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i)
        grad[i] += g[2 * i + 1] * u[2 * i] - g[2 * i] * u[2 * i + 1];
}

void
interleave(const Real *re, const Real *im, Real *dst, std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        dst[2 * i] = re[i];
        dst[2 * i + 1] = im[i];
    }
}

void
interleaveScaled(const Real *re, const Real *im, Real *dst, Real scale,
                 std::size_t n)
{
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        dst[2 * i] = re[i] * scale;
        dst[2 * i + 1] = im[i] * scale;
    }
}

void
copySignAlternating(Real *dst, const Real *src, std::size_t n,
                    bool negate_first)
{
    const Real even = negate_first ? Real(-1) : Real(1);
    const Real odd = -even;
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        const Real s = (i % 2 == 0) ? even : odd;
        dst[2 * i] = s * src[2 * i];
        dst[2 * i + 1] = s * src[2 * i + 1];
    }
}

void
scaleSignAlternating(Real *a, Real scale, std::size_t n, bool negate_first)
{
    const Real even = negate_first ? -scale : scale;
    const Real odd = -even;
    LR_SIMD_LOOP
    for (std::size_t i = 0; i < n; ++i) {
        const Real s = (i % 2 == 0) ? even : odd;
        a[2 * i] *= s;
        a[2 * i + 1] *= s;
    }
}

} // namespace kernels
} // namespace lightridge
