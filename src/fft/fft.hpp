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
 *  - Fft2d runs a lane engine (fft/lanes.hpp) for grids whose two
 *    lengths are smooth, in Simd mode. A 2-D transform is 2n 1-D
 *    transforms of one length sharing their twiddles, so every leaf
 *    codelet, radix-3/4 butterfly and generic combine runs as one
 *    unit-stride loop across W adjacent columns of a split re/im grid,
 *    twiddles broadcast: a column pass needs no gather and no staging.
 *    Each lane block ends in a cache-blocked SoA transpose, which is how
 *    the row transforms become column passes too. The forward spectrum
 *    is left transposed (spectrum order: row kc, column kr), which is the
 *    order the propagator caches its transfer functions in, so a fused
 *    hop (convolveInto) makes two transposes and no more.
 *  - The lane kernels are compiled twice from one source, a baseline and
 *    an AVX2 build (no FMA; src/fft builds with -ffp-contract=off), one
 *    picked at startup. Both agree bitwise, as do all lane-block splits
 *    across the thread pool: a lane's arithmetic never depends on its
 *    neighbours, its vector width or its worker.
 *  - Scalar mode, and any grid with a Bluestein length, take the
 *    per-line fallback: 1-D plans over the rows, a transpose, the rows
 *    again, and a transpose back.
 *  - Large grids (>= kFft2dParallelMinElements) split lane blocks (or
 *    lines) across the process thread pool; results are bitwise equal to
 *    the serial path for any worker count, and execution stays serial
 *    on single-thread hosts, inside pool workers (no nested
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

class PropagationWorkspace;
class ThreadPool;
struct HopPerturbation;

namespace lanes {
struct LanePlan;
}

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
    friend class Fft2d;

    /** The SIMD tables as a lane-engine view; null for Bluestein plans
     *  and builds without the SIMD kernels. */
    const lanes::LanePlan *lanePlan() const;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * 2-D FFT over a Field. Thread-safe; scratch space is thread-local.
 *
 * Smooth grids in Simd mode run the lane engine (see the file comment);
 * Scalar mode and grids with a Bluestein length run the per-line
 * fallback. forward()/inverse() work in natural order. convolveInto()
 * runs a whole free-space hop and keeps the spectrum in spectrum order
 * (transposed) between its forward and inverse halves, so its kernel is
 * stored that way too (transposeSpectrum()).
 *
 * Passing pool = nullptr uses the global pool. The parallel split never
 * changes numerics, and the engine runs serially when the pool has <= 1
 * worker, inside a pool worker (the batched sample-parallel path), or
 * below kFft2dParallelMinElements.
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

    /**
     * One fused hop: out = iFFT2(FFT2(in) .* K), with `in` zero-extended
     * to the plan's shape and the result cropped back to in's shape
     * (`out` is resized to it and may alias `in`). `kernel` is K in
     * spectrum order, cols x rows (transposeSpectrum() of the natural
     * rows x cols spectrum); `conjugate` multiplies by conj(K) instead.
     * A non-null `hop` replaces the kernel by hop->kernel when set and,
     * with has_shift, multiplies the spectrum by its separable shift ramp
     * (conjugated with the kernel). Between the two halves the grid is
     * kept in `out` (a zero-padded hop leases it from `workspace`) and
     * the spectrum in per-thread scratch, so steady state allocates
     * nothing.
     */
    void convolveInto(const Field &in, Field &out, const Field &kernel,
                      bool conjugate, const HopPerturbation *hop,
                      PropagationWorkspace &workspace,
                      ThreadPool *pool = nullptr) const;

  private:
    void checkShape(const Field &field) const;
    bool usesLaneEngine() const;
    void transform(Field *field, bool inverse, ThreadPool *pool) const;

    std::size_t rows_;
    std::size_t cols_;
    std::shared_ptr<const FftPlan> row_plan_; // length == cols
    std::shared_ptr<const FftPlan> col_plan_; // length == rows
};

/**
 * Store a natural-order rows x cols spectrum in spectrum order
 * (cols x rows, the transpose), the layout Fft2d::convolveInto reads
 * its kernel in. `spectrum` is resized as needed.
 */
void transposeSpectrum(const Field &natural, Field &spectrum);

/**
 * Grid-element threshold below which Fft2d stays serial: sharding lane
 * blocks (or lines) only pays off once a pass outweighs the pool's
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
