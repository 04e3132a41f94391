/**
 * @file
 * Kernel-dispatch layer for the FFT engine and element-wise complex math.
 *
 * The propagation hot path (FFT2 -> transfer-function Hadamard -> iFFT2)
 * spends essentially all of its time in a handful of inner loops: radix
 * butterflies, twiddle multiplies, Bluestein chirp products, and the
 * element-wise complex Hadamard multiply. This header exposes those loops
 * as explicitly vectorizable kernels in two flavours:
 *
 *  - Scalar: the original std::complex loops, kept verbatim as the
 *    bit-reference. std::complex multiplies lower to __muldc3 (a libcall
 *    with inf/nan fixups) on GCC/Clang, which blocks vectorization.
 *  - Simd: structure-of-arrays (split real/imag) and interleaved-pair
 *    loops over plain Real arithmetic with contiguous unit strides,
 *    annotated for vectorization. Compiled only when the configure-time
 *    option LIGHTRIDGE_SIMD is on (the default); the build adds
 *    -fopenmp-simd so the `omp simd` annotations are honoured without
 *    pulling in an OpenMP runtime.
 *
 * Dispatch is a process-wide runtime switch so one binary can execute and
 * cross-check both kernel sets (the property suites do exactly that).
 * Reassociated reductions mean Simd results are not bitwise equal to
 * Scalar results; the contract, enforced by tests, is agreement within
 * kFftKernelTolerance * n for unit-magnitude inputs of length n. Within
 * one mode, results are deterministic and independent of thread count.
 * The diffractive-layer kernels (cmulScaledInterleaved,
 * cmulConjScaledInterleaved, accumulatePhaseGrad) are not dispatched:
 * they reproduce their std::complex expressions bit for bit and run in
 * both modes.
 */
#pragma once

#include <cstddef>

#include "utils/types.hpp"

namespace lightridge {

/** Which inner-loop kernel set the FFT/Hadamard engine executes. */
enum class FftKernelMode
{
    Scalar, ///< reference std::complex loops (pre-dispatch behaviour)
    Simd,   ///< vectorizable SoA/interleaved kernels (needs LIGHTRIDGE_SIMD)
};

/** True when the SIMD kernel set was compiled in (LIGHTRIDGE_SIMD=ON). */
bool simdKernelsCompiled();

/** Currently active kernel mode (process-wide). */
FftKernelMode fftKernelMode();

/**
 * Select the kernel mode. Requesting Simd in a build without the SIMD
 * kernels falls back to Scalar; the return value is the mode actually in
 * effect.
 */
FftKernelMode setFftKernelMode(FftKernelMode mode);

/**
 * Scalar-vs-SIMD agreement bound: for inputs with |x_i| <= 1, transforms
 * of length n (or n*n fields) from the two kernel sets agree within
 * kFftKernelTolerance * n in max absolute difference. Pinned by the
 * property and propagator suites; loosening it is an API change.
 */
inline constexpr Real kFftKernelTolerance = 1e-11;

/** RAII guard: set a kernel mode for one scope, restore on exit. */
class FftKernelModeGuard
{
  public:
    explicit FftKernelModeGuard(FftKernelMode mode)
        : previous_(fftKernelMode())
    {
        setFftKernelMode(mode);
    }
    ~FftKernelModeGuard() { setFftKernelMode(previous_); }

    FftKernelModeGuard(const FftKernelModeGuard &) = delete;
    FftKernelModeGuard &operator=(const FftKernelModeGuard &) = delete;

  private:
    FftKernelMode previous_;
};

/**
 * Which ISA build of the 2-D FFT lane kernels (fft/lanes.hpp) runs. Both
 * builds compile from one source without FMA and under
 * -ffp-contract=off, so they agree bitwise; the choice only changes
 * speed. The process starts on the widest build the CPU supports.
 */
enum class LaneIsa
{
    Baseline, ///< the target's baseline vector ISA (SSE2 on x86-64)
    Avx2,     ///< 256-bit AVX2 build (x86-64 with LIGHTRIDGE_SIMD only)
};

/** True when the build and the CPU can run `isa`. */
bool laneIsaSupported(LaneIsa isa);

/** The lane-kernel build currently in effect (process-wide). */
LaneIsa laneIsa();

/**
 * Select the lane-kernel build; an unsupported request falls back to
 * Baseline. Returns the build in effect. For tests and benches that
 * compare the two builds.
 */
LaneIsa setLaneIsa(LaneIsa isa);

/** RAII guard: select a lane-kernel build for one scope. */
class LaneIsaGuard
{
  public:
    explicit LaneIsaGuard(LaneIsa isa) : previous_(laneIsa())
    {
        setLaneIsa(isa);
    }
    ~LaneIsaGuard() { setLaneIsa(previous_); }

    LaneIsaGuard(const LaneIsaGuard &) = delete;
    LaneIsaGuard &operator=(const LaneIsaGuard &) = delete;

  private:
    LaneIsa previous_;
};

/**
 * The vectorizable kernels themselves. All pointers must be non-aliasing
 * unless a parameter is documented as in/out; SoA variants take split
 * real/imag arrays, interleaved variants take (re, im) pairs as laid out
 * by std::complex<Real> arrays.
 */
namespace kernels {

/**
 * Radix-3 butterfly pass over one combine block of length 3m.
 * Twiddle arrays hold two unit-stride sub-tables of length m each:
 * tw_re[j*m + k] = Re(W_{3m}^{(j+1)k}) for j in {0,1}.
 */
void radix3Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);

/**
 * Radix-4 butterfly pass over one combine block of length 4m.
 * Twiddle arrays hold three unit-stride sub-tables of length m each:
 * tw_re[j*m + k] = Re(W_{4m}^{(j+1)k}) for j in {0,1,2}.
 */
void radix4Pass(Real *re, Real *im, const Real *tw_re, const Real *tw_im,
                std::size_t m);

/**
 * Leaf codelets: `count` complete n-point forward DFTs, n in
 * {1, 2, 4, 8}, each a hard-coded straight-line transform with
 * constant twiddles. Block b reads its samples straight from strided
 * interleaved storage — sample t is (in_re[b*block_step + t*step],
 * in_im[b*block_step + t*step]), steps counted in Reals — and writes
 * split out_re/out_im[b*n + t]. Passing in_re = base + 1 and
 * in_im = base swaps real and imaginary parts on load, which is how the
 * plan's conjugation-free inverse enters the transform.
 */
void dftLeaves(std::size_t n, std::size_t count, const Real *in_re,
               const Real *in_im, std::size_t step, std::size_t block_step,
               Real *out_re, Real *out_im);

/** out = a * b, element-wise complex multiply over split arrays. */
void cmulSoa(Real *out_re, Real *out_im, const Real *a_re, const Real *a_im,
             const Real *b_re, const Real *b_im, std::size_t n);

/** y += c * x for a complex constant c over split arrays. */
void caxpySoa(Real *y_re, Real *y_im, const Real *x_re, const Real *x_im,
              Real c_re, Real c_im, std::size_t n);

/**
 * a *= b element-wise over interleaved complex arrays of n samples
 * (2n Reals). This is the transfer-function Hadamard multiply of the
 * propagator and the Bluestein chirp product.
 */
void cmulInterleaved(Real *a, const Real *b, std::size_t n);

/** a *= conj(b) element-wise over interleaved complex arrays. */
void cmulConjInterleaved(Real *a, const Real *b, std::size_t n);

/**
 * dst = a * b element-wise over interleaved complex arrays (out of
 * place; dst must not alias a or b). Used where the product lands in a
 * different buffer anyway — the Bluestein chirp products — to avoid a
 * copy-then-multiply double pass.
 */
void cmulInterleavedOut(Real *dst, const Real *a, const Real *b,
                        std::size_t n);

/**
 * dst = (scale * a) * b element-wise over interleaved complex arrays,
 * evaluated as the std::complex expression scale * a * b is (without its
 * NaN fixup), so the results match it bitwise. dst may alias a. This is
 * a diffractive layer's modulation gamma * U * exp(j*phi).
 */
void cmulScaledInterleaved(Real *dst, const Real *a, Real scale,
                           const Real *b, std::size_t n);

/**
 * a = (scale * a) * conj(b) element-wise over interleaved complex arrays:
 * the gradient through a layer's modulation, bitwise equal to the
 * std::complex expression a * scale * conj(b).
 */
void cmulConjScaledInterleaved(Real *a, Real scale, const Real *b,
                               std::size_t n);

/**
 * grad[i] += Re(conj(g_i) * j * u_i) = Im(g_i) Re(u_i) - Re(g_i) Im(u_i)
 * for n interleaved complex g, u and real grad: the phase gradient of a
 * unit-modulus modulation whose output is u and output gradient g.
 */
void accumulatePhaseGrad(Real *grad, const Real *g, const Real *u,
                         std::size_t n);

/** Merge re[]/im[] back into n interleaved complex samples. */
void interleave(const Real *re, const Real *im, Real *dst, std::size_t n);

/**
 * interleave() with every sample scaled by `scale`. Called with re and
 * im exchanged, it is the swap-and-1/n epilogue of the inverse transform.
 */
void interleaveScaled(const Real *re, const Real *im, Real *dst, Real scale,
                      std::size_t n);

/**
 * dst = +/- src over n interleaved complex samples with the sign
 * alternating per sample, starting negative when negate_first is set.
 * This is one row of the Fraunhofer centered-DFT sign checkerboard
 * (-1)^(r+c); negation is exact, so the kernel is bitwise-identical to
 * the scalar complex-times-sign loop. dst may alias src.
 */
void copySignAlternating(Real *dst, const Real *src, std::size_t n,
                         bool negate_first);

/**
 * a *= +/- scale over n interleaved complex samples with the sign
 * alternating per sample (the Fraunhofer adjoint's fused sign and N^2
 * rescale). Bitwise-identical to the scalar loop for the same reason.
 */
void scaleSignAlternating(Real *a, Real scale, std::size_t n,
                          bool negate_first);

} // namespace kernels

} // namespace lightridge
