/**
 * @file
 * Lane engine of the 2-D FFT (internal to src/fft).
 *
 * A 2-D transform is 2n independent 1-D transforms of one length that
 * share their twiddles. In a row-major split re/im grid, W adjacent
 * columns are contiguous, so one column pass can run every leaf codelet,
 * radix-3/4 butterfly and generic p >= 5 combine of W columns as one
 * unit-stride loop across the W "lanes", with the twiddles broadcast.
 * A lane block is W adjacent columns transformed over the full column
 * length inside a small per-thread block buffer (stride W), and its
 * epilogue stores the block either transposed into the next plane (the
 * cache-blocked SoA transpose that turns rows into columns) or
 * interleaved into the output field.
 *
 * The kernels are compiled twice from lane_engine.inc: a baseline build
 * and an AVX2 build (no FMA; src/fft is compiled with -ffp-contract=off).
 * Each lane's arithmetic is the same IEEE operation sequence whatever the
 * vector width, block split or worker, so the two builds and every pool
 * split agree bitwise.
 */
#pragma once

#include <cstddef>

#include "utils/types.hpp"

namespace lightridge::lanes {

/**
 * Lanes per block: adjacent columns transformed by one vector loop. 24
 * splits a 96-wide grid into four full blocks; min-of-300 timings of a
 * 96^2 hop (AVX2 build) read 74 us at 24 lanes, 80 us at 16, 82 us at 8
 * and 86 us at 32, and 32^2 hops read the same at 16 and 24.
 */
inline constexpr std::size_t kLaneBlock = 24;

/**
 * Largest prime factor a plan combines directly (so the largest generic
 * radix of the lane combine); lengths with a larger one take Bluestein.
 */
inline constexpr std::size_t kMaxDirectRadix = 31;

/**
 * View of one FftPlan's SIMD tables: `levels` combine radices, outermost
 * first, over a leaf codelet (n itself when levels is 0). Per level with
 * radix p over blocks of n_level = p * m:
 * tw_re/tw_im[level][(j-1)*m + k] = W_{n_level}^{jk} for j in 1..p-1,
 * and dft_re/dft_im[level] the p*p DFT matrix (generic radices only).
 */
struct LanePlan
{
    std::size_t n = 0;
    std::size_t levels = 0;
    const std::size_t *radix = nullptr;
    const Real *const *tw_re = nullptr;
    const Real *const *tw_im = nullptr;
    const Real *const *dft_re = nullptr;
    const Real *const *dft_im = nullptr;
};

/**
 * Separable spectral phasor of a lateral shift, in spectrum (transposed)
 * order: the element at spectrum row kr, column kc is multiplied by
 * row[kr] * col[kc] (both interleaved complex), conjugated on the adjoint.
 */
struct LaneRamp
{
    const Real *row = nullptr;
    const Real *col = nullptr;
};

/**
 * One ISA build of the lane kernels. Every entry point transforms one
 * lane block [lane0, lane0 + lanes) (lanes <= kLaneBlock) over a full
 * column of `plan.n` rows.
 */
struct LaneKernels
{
    /**
     * Forward transform of interleaved columns (row stride `in_ld`
     * Reals; rows >= in_rows read as zero; `swap` exchanges re/im on
     * load), stored transposed into planes: dst[(lane0 + w) * dst_ld + r].
     */
    void (*columnsToPlanesT)(const LanePlan &plan, const Real *in,
                             std::size_t in_ld, std::size_t in_rows,
                             bool swap, std::size_t lane0,
                             std::size_t lanes, Real *dst_re, Real *dst_im,
                             std::size_t dst_ld);

    /**
     * Forward transform of plane columns (row stride src_ld), stored
     * transposed and interleaved: out[((lane0 + w) * out_ld + r)] of
     * complex samples, scaled by `scale`, re/im exchanged when `swap`.
     */
    void (*planesToInterleavedT)(const LanePlan &plan, const Real *src_re,
                                 const Real *src_im, std::size_t src_ld,
                                 std::size_t lane0, std::size_t lanes,
                                 Real *out, std::size_t out_ld, Real scale,
                                 bool swap);

    /**
     * The middle of a hop: forward transform of plane columns, product
     * with the spectrum-order kernel (interleaved, row stride kernel_ld
     * complex samples; conjugated when `conjugate`) and the optional
     * ramp, then the inverse transform in the re/im-exchanged domain,
     * stored transposed and interleaved for dst rows [0, dst_cols) of
     * each lane: dst[(lane0 + w) * dst_ld + c] (complex, stride dst_ld).
     */
    void (*hopMiddle)(const LanePlan &plan, const Real *src_re,
                      const Real *src_im, std::size_t src_ld,
                      std::size_t lane0, std::size_t lanes,
                      const Real *kernel, std::size_t kernel_ld,
                      bool conjugate, const LaneRamp *ramp, Real *dst,
                      std::size_t dst_ld, std::size_t dst_cols);

    /**
     * The last hop pass: transform of interleaved columns (row stride
     * src_ld complex samples) in the exchanged domain, stored with re/im
     * exchanged back and scaled: out[r * out_ld + lane0 + w] for rows
     * r < out_rows. `out` may be `src` (each block reads its columns in
     * full before storing them).
     */
    void (*hopLast)(const LanePlan &plan, const Real *src,
                    std::size_t src_ld, std::size_t lane0,
                    std::size_t lanes, Real *out, std::size_t out_ld,
                    std::size_t out_rows, Real scale);
};

/** The kernels of the ISA build selected by laneIsa(). */
const LaneKernels &laneKernels();

/**
 * Per-thread block buffers: two pairs of split re/im arrays of
 * n * kLaneBlock Reals each, grown on demand and reused.
 */
Real *blockScratch(std::size_t n);

} // namespace lightridge::lanes
