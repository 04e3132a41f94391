/**
 * @file
 * Planned FFT engine: mixed-radix Cooley-Tukey with Bluestein fallback.
 *
 * This is the performance-critical kernel of LightRidge (paper Section 5.3,
 * Figure 8): scalar-diffraction emulation reduces to FFT2 -> complex
 * Hadamard product -> iFFT2. No external FFT library is available in this
 * environment, so the engine is built from scratch:
 *
 *  - Arbitrary transform lengths. Smooth lengths (prime factors <= 31) run
 *    a recursive mixed-radix Cooley-Tukey with precomputed per-level
 *    twiddle tables and in-place butterflies; lengths with a larger prime
 *    factor run Bluestein's chirp-z algorithm over a power-of-two plan.
 *  - Plans are immutable after construction and safe to share across
 *    threads; per-call scratch lives in thread-local storage.
 *  - Inner loops run through the kernel-dispatch layer (fft/kernels.hpp):
 *    the default Simd mode executes split real/imag structure-of-arrays
 *    butterflies (radix-3/4 specialized, odd radices outermost, generic
 *    radix 5..31 through SoA twiddle products) and vectorized
 *    chirp/Hadamard products; Scalar mode keeps the original
 *    std::complex loops as the bit-reference. Odd radices go outermost
 *    because a level's butterflies vectorize over its unit-stride vector
 *    length m = n_level / p, which is widest at the top; innermost, an
 *    odd radix would run one scalar combine per block at m = 1.
 *  - The Simd recursion ends in hard-coded leaf codelets (8 points when
 *    the length has an odd number >= 3 of factors 2, else 4, 2 or 1)
 *    that read the strided interleaved input directly, so 96 = [3, 4]
 *    over 8-point leaves makes 4 recursive calls, not 64. The Simd
 *    inverse is conjugation-free: IDFT(x) = swap(DFT(swap(x))) / n with
 *    swap exchanging real and imaginary parts, folded into the leaf
 *    loads and the final interleave, so it costs what the forward costs.
 *    Scalar mode and Bluestein lengths conjugate around the forward.
 *  - Fft2d shards the independent 1-D row and column transforms of one
 *    large grid across the process thread pool (row-parallel FFT2). The
 *    split is deterministic: results are bitwise-identical to the serial
 *    path regardless of worker count, and execution degrades gracefully
 *    to serial on single-thread hosts, inside pool workers (no nested
 *    parallelism), and for small grids.
 *
 * The "LightPipes-like" baseline in src/baseline deliberately omits the
 * planning/caching/fusion done here, which is exactly the delta the
 * paper's runtime evaluation measures.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/kernels.hpp"
#include "tensor/field.hpp"
#include "utils/types.hpp"

namespace lightridge {

class ThreadPool;

/**
 * Immutable 1-D FFT plan for a fixed transform length.
 *
 * Construction factorizes the length, precomputes all twiddle tables (and,
 * for Bluestein lengths, the chirp spectrum). Execution is allocation-free
 * in steady state.
 */
class FftPlan
{
  public:
    /** Build a plan for length n (n >= 1). */
    explicit FftPlan(std::size_t n);
    ~FftPlan();

    FftPlan(const FftPlan &) = delete;
    FftPlan &operator=(const FftPlan &) = delete;
    FftPlan(FftPlan &&) noexcept;
    FftPlan &operator=(FftPlan &&) noexcept;

    /** Transform length. */
    std::size_t size() const;

    /** In-place forward DFT (engineering sign convention e^{-j2pi kn/N}). */
    void forward(Complex *data) const;

    /** In-place inverse DFT, scaled by 1/N. */
    void inverse(Complex *data) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * 2-D FFT over a Field: rows then columns, both via shared 1-D plans.
 * Thread-safe; scratch space is thread-local.
 *
 * Large grids are row/column-parallel: the independent 1-D transforms are
 * sharded across a thread pool. Passing pool = nullptr uses the global
 * pool. The parallel split never changes numerics (each 1-D transform is
 * computed identically on whichever thread runs it), and the engine runs
 * serially when the pool has <= 1 worker, when already executing inside a
 * pool worker (the batched sample-parallel path), or when the grid is
 * below the parallel threshold.
 */
class Fft2d
{
  public:
    /** Plan for fields with the given shape. */
    Fft2d(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * In-place forward 2-D DFT. Throws std::invalid_argument, naming both
     * shapes, when the field's shape does not match the plan.
     */
    void forward(Field *field, ThreadPool *pool = nullptr) const;

    /** In-place inverse 2-D DFT (scaled by 1/(rows*cols)); same shape
     *  check as forward(). */
    void inverse(Field *field, ThreadPool *pool = nullptr) const;

  private:
    void checkShape(const Field &field) const;
    void transformRows(Field *field, bool inverse, ThreadPool *pool) const;
    void transformColumns(Field *field, bool inverse, ThreadPool *pool) const;

    std::size_t rows_;
    std::size_t cols_;
    std::shared_ptr<const FftPlan> row_plan_; // length == cols
    std::shared_ptr<const FftPlan> col_plan_; // length == rows
};

/**
 * Grid-element threshold below which Fft2d stays serial: sharding 1-D
 * transforms only pays off once a transform batch outweighs the pool's
 * wake/join cost (empirically around a 128x128 grid).
 */
inline constexpr std::size_t kFft2dParallelMinElements = 128 * 128;

/**
 * Process-wide FFT plan cache.
 *
 * Plan construction (factorization + twiddle tables, plus the chirp
 * spectrum for Bluestein lengths) is the expensive part of the engine;
 * every propagator hop, bench harness, and training loop that transforms
 * the same length should share one immutable plan. acquireFftPlan()
 * returns the cached plan for a length, building it on first use. Plans
 * are immutable and thread-safe to execute concurrently, so sharing is
 * free; the cache itself is mutex-protected.
 */
std::shared_ptr<const FftPlan> acquireFftPlan(std::size_t n);

/** Number of distinct plan lengths currently cached. */
std::size_t fftPlanCacheSize();

/** Drop all cached plans (live shared_ptr holders keep theirs alive). */
void clearFftPlanCache();

/** Centered spectrum reordering (swap half-spaces); returns a new field. */
Field fftshift(const Field &in);

/** Inverse of fftshift (differs from it for odd sizes). */
Field ifftshift(const Field &in);

/** Smallest length >= n whose prime factors are all <= 7. */
std::size_t nextFastLength(std::size_t n);

} // namespace lightridge
