#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "fft/lanes.hpp"
#include "optics/perturbation.hpp"
#include "optics/workspace.hpp"
#include "utils/sync.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {

namespace {

/** Factorize n into primes in ascending order (2 repeated, etc.). */
std::vector<std::size_t>
factorize(std::size_t n)
{
    std::vector<std::size_t> factors;
    for (std::size_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
        while (n % p == 0) {
            factors.push_back(p);
            n /= p;
        }
    }
    if (n > 1)
        factors.push_back(n);
    return factors;
}

/**
 * Combine radices for the SIMD engine, outermost level first: the odd
 * prime factors, largest first, then radix-4 levels over the power-of-two
 * part. What the radices leave of n is the leaf, run by a hard-coded
 * codelet: 8 for an odd count of 2s, 4 for an even one (so no radix-2
 * level is left over), 1 or 2 below that. 96 = 3 * 2^5 runs [3, 4] over
 * leaf 8, 32 runs [4] over leaf 8, 64 runs [4, 4] over leaf 4. (A
 * 16-point codelet measured slower than [4] over leaf 4: its 32 live
 * values spill on SSE2.) Odd radices go outermost because every SoA
 * combine vectorizes over the m = n_level / p unit-stride lanes of its
 * level, and m is widest at the top; the largest (costliest generic)
 * radix gets the widest level.
 */
std::vector<std::size_t>
groupFactorsForSimd(const std::vector<std::size_t> &factors)
{
    const auto twos = static_cast<std::size_t>(
        std::count(factors.begin(), factors.end(), std::size_t(2)));
    std::size_t leaf_twos = twos; // leaf 1, 2 or 4
    if (twos >= 3)
        leaf_twos = twos % 2 != 0 ? 3 : 2;
    // factorize() lists primes ascending, so reversed and minus the
    // trailing 2s this is the odd factors, largest first.
    std::vector<std::size_t> out(factors.rbegin(), factors.rend() - twos);
    out.insert(out.end(), (twos - leaf_twos) / 2, 4);
    return out;
}

/** Thread-local scratch buffer, grown on demand. */
Complex *
tlsScratch(std::size_t n)
{
    static thread_local std::vector<Complex> buffer;
    if (buffer.size() < n)
        buffer.resize(n);
    return buffer.data();
}

/**
 * Thread-local split real/imag scratch for the SoA engine: recursion
 * output and a generic-radix staging block. One set per thread suffices
 * because plan execution uses it strictly nested (a combine finishes with
 * the staging block before its parent starts).
 */
struct SoaScratch
{
    std::vector<Real> out_re, out_im;
    std::vector<Real> stage_re, stage_im;

    void
    ensure(std::size_t n)
    {
        if (out_re.size() >= n)
            return;
        out_re.resize(n);
        out_im.resize(n);
        stage_re.resize(n);
        stage_im.resize(n);
    }
};

SoaScratch &
tlsSoaScratch(std::size_t n)
{
    static thread_local SoaScratch scratch;
    scratch.ensure(n);
    return scratch;
}

} // namespace

/**
 * Plan internals. Two strategies:
 *  - Mixed radix: recursion over 'factors', with a per-level twiddle table
 *    tw[level][i] = exp(-j*2*pi*i / n_level). The SIMD engine runs the
 *    same recursion over a radix-grouped factor sequence with split
 *    real/imag twiddle sub-tables feeding the SoA kernels.
 *  - Bluestein: chirp-z over an internal power-of-two mixed-radix plan.
 */
struct FftPlan::Impl
{
    std::size_t n = 0;
    bool bluestein = false;

    // Mixed-radix state (scalar reference path).
    std::vector<std::size_t> factors;
    std::vector<std::size_t> level_sizes;
    std::vector<std::vector<Complex>> twiddles; // per level, length n_level

    // Mixed-radix state for the SoA/SIMD engine: combine levels over
    // simd_factors, the recursion ending in a leaf codelet of length
    // n / prod(simd_factors). Per level with radix p over blocks of
    // length n_level = p * m:
    //  - simd_tw holds p-1 unit-stride sub-tables of length m each,
    //    tw[(j-1)*m + k] = exp(-j*2*pi*(j*k)/n_level), j in 1..p-1;
    //  - simd_dft holds the p*p DFT matrix exp(-j*2*pi*t*j/p) for the
    //    generic-radix kernel (unused for the specialized p = 3, 4).
    std::vector<std::size_t> simd_factors;
    std::vector<std::vector<Real>> simd_tw_re, simd_tw_im;
    std::vector<std::vector<Real>> simd_dft_re, simd_dft_im;
    // Pointer view of the SIMD tables for the 2-D lane engine.
    std::vector<const Real *> lane_tw_re, lane_tw_im, lane_dft_re,
        lane_dft_im;
    lanes::LanePlan lane;

    // Bluestein state.
    std::size_t m = 0;                      // power-of-two conv length
    std::vector<Complex> chirp;             // a_k = exp(-j*pi*k^2/n)
    std::vector<Complex> chirp_spectrum;    // FFT_m of conj-chirp kernel
    std::shared_ptr<const FftPlan> inner;   // power-of-two plan of length m

    void buildMixedRadix();
    void buildSimdTables();
    void buildBluestein();
    void executeMixed(Complex *data) const;
    void recurse(const Complex *in, std::size_t in_stride, Complex *out,
                 std::size_t n_cur, std::size_t level) const;
    void combine(Complex *out, std::size_t n_cur, std::size_t p,
                 std::size_t level) const;
    void executeMixedSimd(Complex *data, bool inverse) const;
    void recurseSoa(const Real *in_re, const Real *in_im, std::size_t step,
                    Real *out_re, Real *out_im, std::size_t n_cur,
                    std::size_t level, SoaScratch *scratch) const;
    void combineSoa(Real *re, Real *im, std::size_t n_cur, std::size_t p,
                    std::size_t level, SoaScratch *scratch) const;
    void executeBluestein(Complex *data) const;
};

void
FftPlan::Impl::buildMixedRadix()
{
    factors = factorize(n);
    std::size_t cur = n;
    for (std::size_t p : factors) {
        level_sizes.push_back(cur);
        std::vector<Complex> table(cur);
        for (std::size_t i = 0; i < cur; ++i) {
            Real angle = -kTwoPi * static_cast<Real>(i) /
                         static_cast<Real>(cur);
            table[i] = Complex{std::cos(angle), std::sin(angle)};
        }
        twiddles.push_back(std::move(table));
        cur /= p;
    }
    if (simdKernelsCompiled())
        buildSimdTables();
}

void
FftPlan::Impl::buildSimdTables()
{
    simd_factors = groupFactorsForSimd(factors);
    std::size_t cur = n;
    for (std::size_t p : simd_factors) {
        const std::size_t m_cur = cur / p;
        std::vector<Real> tw_re((p - 1) * m_cur);
        std::vector<Real> tw_im((p - 1) * m_cur);
        for (std::size_t j = 1; j < p; ++j)
            for (std::size_t k = 0; k < m_cur; ++k) {
                std::size_t idx = (j * k) % cur; // keep the argument small
                Real angle = -kTwoPi * static_cast<Real>(idx) /
                             static_cast<Real>(cur);
                tw_re[(j - 1) * m_cur + k] = std::cos(angle);
                tw_im[(j - 1) * m_cur + k] = std::sin(angle);
            }
        simd_tw_re.push_back(std::move(tw_re));
        simd_tw_im.push_back(std::move(tw_im));

        std::vector<Real> dft_re, dft_im;
        if (p > 4) {
            dft_re.resize(p * p);
            dft_im.resize(p * p);
            for (std::size_t t = 0; t < p; ++t)
                for (std::size_t j = 0; j < p; ++j) {
                    Real angle = -kTwoPi *
                                 static_cast<Real>((t * j) % p) /
                                 static_cast<Real>(p);
                    dft_re[t * p + j] = std::cos(angle);
                    dft_im[t * p + j] = std::sin(angle);
                }
        }
        simd_dft_re.push_back(std::move(dft_re));
        simd_dft_im.push_back(std::move(dft_im));
        cur = m_cur;
    }
    for (std::size_t level = 0; level < simd_factors.size(); ++level) {
        lane_tw_re.push_back(simd_tw_re[level].data());
        lane_tw_im.push_back(simd_tw_im[level].data());
        lane_dft_re.push_back(simd_dft_re[level].data());
        lane_dft_im.push_back(simd_dft_im[level].data());
    }
    lane = {n,
            simd_factors.size(),
            simd_factors.data(),
            lane_tw_re.data(),
            lane_tw_im.data(),
            lane_dft_re.data(),
            lane_dft_im.data()};
}

void
FftPlan::Impl::buildBluestein()
{
    bluestein = true;
    m = 1;
    while (m < 2 * n - 1)
        m <<= 1;
    // Power-of-two inner plans recur across Bluestein lengths (every prime
    // in [2^{k-1}, 2^k) shares the same conv length), so take them from the
    // shared cache.
    inner = acquireFftPlan(m);

    chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        // k^2 mod 2n keeps the argument small for precision.
        std::size_t k2 = (k * k) % (2 * n);
        Real angle = -kPi * static_cast<Real>(k2) / static_cast<Real>(n);
        chirp[k] = Complex{std::cos(angle), std::sin(angle)};
    }

    std::vector<Complex> kernel(m, Complex{0, 0});
    for (std::size_t k = 0; k < n; ++k) {
        Complex b = std::conj(chirp[k]);
        kernel[k] = b;
        if (k != 0)
            kernel[m - k] = b;
    }
    // The spectrum is baked into the (process-wide cached) plan, so it is
    // computed with the scalar reference kernels unconditionally: cached
    // plan data stays identical whatever kernel mode happens to be active
    // when the plan is first constructed.
    inner->impl_->executeMixed(kernel.data());
    chirp_spectrum = std::move(kernel);
}

void
FftPlan::Impl::combine(Complex *out, std::size_t n_cur, std::size_t p,
                       std::size_t level) const
{
    const std::size_t m_cur = n_cur / p;
    const std::vector<Complex> &tw = twiddles[level];

    if (p == 2) {
        for (std::size_t k = 0; k < m_cur; ++k) {
            Complex a0 = out[k];
            Complex a1 = out[m_cur + k] * tw[k];
            out[k] = a0 + a1;
            out[m_cur + k] = a0 - a1;
        }
        return;
    }

    // Generic radix: gather p strided values, apply the p-point DFT with
    // twiddles folded in, scatter back to the same positions.
    Complex a[lanes::kMaxDirectRadix];
    std::size_t cursor[lanes::kMaxDirectRadix];
    std::size_t step[lanes::kMaxDirectRadix];
    for (std::size_t j = 1; j < p; ++j)
        step[j] = (j * m_cur) % n_cur;

    for (std::size_t k = 0; k < m_cur; ++k) {
        for (std::size_t j = 0; j < p; ++j)
            a[j] = out[j * m_cur + k];
        for (std::size_t j = 1; j < p; ++j)
            cursor[j] = (j * k) % n_cur;
        for (std::size_t t = 0; t < p; ++t) {
            Complex acc = a[0];
            for (std::size_t j = 1; j < p; ++j) {
                acc += a[j] * tw[cursor[j]];
                cursor[j] += step[j];
                if (cursor[j] >= n_cur)
                    cursor[j] -= n_cur;
            }
            out[t * m_cur + k] = acc;
        }
    }
}

void
FftPlan::Impl::recurse(const Complex *in, std::size_t in_stride, Complex *out,
                       std::size_t n_cur, std::size_t level) const
{
    if (n_cur == 1) {
        out[0] = in[0];
        return;
    }
    const std::size_t p = factors[level];
    const std::size_t m_cur = n_cur / p;
    for (std::size_t j = 0; j < p; ++j)
        recurse(in + j * in_stride, in_stride * p, out + j * m_cur, m_cur,
                level + 1);
    combine(out, n_cur, p, level);
}

void
FftPlan::Impl::executeMixed(Complex *data) const
{
    Complex *work = tlsScratch(n);
    recurse(data, 1, work, n, 0);
    std::copy(work, work + n, data);
}

void
FftPlan::Impl::combineSoa(Real *re, Real *im, std::size_t n_cur,
                          std::size_t p, std::size_t level,
                          SoaScratch *scratch) const
{
    const std::size_t m_cur = n_cur / p;
    const Real *tw_re = simd_tw_re[level].data();
    const Real *tw_im = simd_tw_im[level].data();

    if (p == 3) {
        kernels::radix3Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }
    if (p == 4) {
        kernels::radix4Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }

    // Generic radix: stage b_j = a_j * tw_j (b_0 = a_0), then accumulate
    // the p-point DFT rows y_t = sum_j W_p^{tj} * b_j as vectorized
    // constant-complex axpy passes over unit-stride lanes.
    Real *b_re = scratch->stage_re.data();
    Real *b_im = scratch->stage_im.data();
    std::copy(re, re + m_cur, b_re);
    std::copy(im, im + m_cur, b_im);
    for (std::size_t j = 1; j < p; ++j)
        kernels::cmulSoa(b_re + j * m_cur, b_im + j * m_cur, re + j * m_cur,
                         im + j * m_cur, tw_re + (j - 1) * m_cur,
                         tw_im + (j - 1) * m_cur, m_cur);
    const Real *dft_re = simd_dft_re[level].data();
    const Real *dft_im = simd_dft_im[level].data();
    for (std::size_t t = 0; t < p; ++t) {
        Real *y_re = re + t * m_cur;
        Real *y_im = im + t * m_cur;
        std::copy(b_re, b_re + m_cur, y_re); // W_p^{t*0} = 1
        std::copy(b_im, b_im + m_cur, y_im);
        for (std::size_t j = 1; j < p; ++j)
            kernels::caxpySoa(y_re, y_im, b_re + j * m_cur, b_im + j * m_cur,
                              dft_re[t * p + j], dft_im[t * p + j], m_cur);
    }
}

/**
 * SoA recursion over interleaved input: sample t of the sub-transform is
 * (in_re[t * step], in_im[t * step]), step counted in Reals. Reading the
 * interleaved data directly at the gather points saves a deinterleave
 * pass. The last combine level hands all p of its children to one
 * batched leaf-codelet call, so a 96-point transform makes 4 recursive
 * calls instead of descending to 2-point transforms.
 */
void
FftPlan::Impl::recurseSoa(const Real *in_re, const Real *in_im,
                          std::size_t step, Real *out_re, Real *out_im,
                          std::size_t n_cur, std::size_t level,
                          SoaScratch *scratch) const
{
    const std::size_t p = simd_factors[level];
    const std::size_t m_cur = n_cur / p;
    if (level + 1 == simd_factors.size()) {
        kernels::dftLeaves(m_cur, p, in_re, in_im, step * p, step, out_re,
                           out_im);
    } else {
        for (std::size_t j = 0; j < p; ++j)
            recurseSoa(in_re + j * step, in_im + j * step, step * p,
                       out_re + j * m_cur, out_im + j * m_cur, m_cur,
                       level + 1, scratch);
    }
    combineSoa(out_re, out_im, n_cur, p, level, scratch);
}

/**
 * Forward or inverse transform on the SoA engine. The inverse uses
 * IDFT(x) = swap(DFT(swap(x))) / n, where swap exchanges real and
 * imaginary parts: the leaves load with re/im exchanged and the final
 * interleave writes them back exchanged and scaled, so the inverse costs
 * the same passes as the forward.
 */
void
FftPlan::Impl::executeMixedSimd(Complex *data, bool inverse) const
{
    SoaScratch &scratch = tlsSoaScratch(n);
    Real *interleaved = reinterpret_cast<Real *>(data);
    Real *re = scratch.out_re.data();
    Real *im = scratch.out_im.data();
    const std::size_t swap = inverse ? 1 : 0;
    const Real *in_re = interleaved + swap;
    const Real *in_im = interleaved + 1 - swap;
    if (simd_factors.empty()) // n is itself a leaf length
        kernels::dftLeaves(n, 1, in_re, in_im, 2, 0, re, im);
    else
        recurseSoa(in_re, in_im, 2, re, im, n, 0, &scratch);
    if (inverse)
        kernels::interleaveScaled(im, re, interleaved,
                                  Real(1) / static_cast<Real>(n), n);
    else
        kernels::interleave(re, im, interleaved, n);
}

void
FftPlan::Impl::executeBluestein(Complex *data) const
{
    // Scratch must not collide with the inner plan's own thread-local use;
    // the convolution buffer lives in its own thread-local pool (the inner
    // plan is always mixed-radix, so Bluestein execution never nests) and
    // is grown once per length — steady-state execution allocates nothing.
    const bool simd = simdKernelsCompiled() &&
                      fftKernelMode() == FftKernelMode::Simd;
    static thread_local std::vector<Complex> chirp_buffer;
    if (chirp_buffer.size() < m)
        chirp_buffer.resize(m);
    std::fill_n(chirp_buffer.begin(), m, Complex{0, 0});
    std::vector<Complex> &buffer = chirp_buffer;
    if (simd) {
        kernels::cmulInterleavedOut(
            reinterpret_cast<Real *>(buffer.data()),
            reinterpret_cast<const Real *>(data),
            reinterpret_cast<const Real *>(chirp.data()), n);
    } else {
        for (std::size_t k = 0; k < n; ++k)
            buffer[k] = data[k] * chirp[k];
    }
    inner->forward(buffer.data());
    if (simd) {
        kernels::cmulInterleaved(
            reinterpret_cast<Real *>(buffer.data()),
            reinterpret_cast<const Real *>(chirp_spectrum.data()), m);
    } else {
        for (std::size_t k = 0; k < m; ++k)
            buffer[k] *= chirp_spectrum[k];
    }
    inner->inverse(buffer.data());
    if (simd) {
        kernels::cmulInterleavedOut(
            reinterpret_cast<Real *>(data),
            reinterpret_cast<const Real *>(buffer.data()),
            reinterpret_cast<const Real *>(chirp.data()), n);
    } else {
        for (std::size_t k = 0; k < n; ++k)
            data[k] = buffer[k] * chirp[k];
    }
}

FftPlan::FftPlan(std::size_t n) : impl_(std::make_unique<Impl>())
{
    if (n == 0)
        throw std::invalid_argument("FftPlan: zero length");
    impl_->n = n;
    auto factors = factorize(n);
    bool smooth = factors.empty() ||
                  factors.back() <= lanes::kMaxDirectRadix;
    if (smooth)
        impl_->buildMixedRadix();
    else
        impl_->buildBluestein();
}

FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan &&) noexcept = default;
FftPlan &FftPlan::operator=(FftPlan &&) noexcept = default;

std::size_t
FftPlan::size() const
{
    return impl_->n;
}

void
FftPlan::forward(Complex *data) const
{
    if (impl_->n == 1)
        return;
    if (impl_->bluestein) {
        impl_->executeBluestein(data);
        return;
    }
    if (simdKernelsCompiled() && fftKernelMode() == FftKernelMode::Simd)
        impl_->executeMixedSimd(data, false);
    else
        impl_->executeMixed(data);
}

void
FftPlan::inverse(Complex *data) const
{
    const std::size_t n = impl_->n;
    if (n == 1)
        return;
    if (!impl_->bluestein && simdKernelsCompiled() &&
        fftKernelMode() == FftKernelMode::Simd) {
        impl_->executeMixedSimd(data, true);
        return;
    }
    // Scalar reference and Bluestein: conjugate around the forward.
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::conj(data[i]);
    forward(data);
    const Real scale = Real(1) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::conj(data[i]) * scale;
}

namespace {

/** Plan cache shared by every Fft2d / Bluestein inner plan in the process. */
struct PlanCache
{
    Mutex mutex;
    std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> plans
        LIGHTRIDGE_GUARDED_BY(mutex);
};

PlanCache &
planCache()
{
    static PlanCache cache;
    return cache;
}

/**
 * Resolve the pool Fft2d splits lane blocks (or lines) across, or nullptr
 * for serial execution. Serial whenever the pool has no real workers,
 * the caller is itself a pool worker (sample-parallel batches already
 * saturate the pool; nesting would deadlock the queue), or the grid is
 * too small to amortize a wake/join.
 */
ThreadPool *
fft2dPool(ThreadPool *pool, std::size_t elements)
{
    if (elements < kFft2dParallelMinElements)
        return nullptr;
    if (ThreadPool::insideWorker())
        return nullptr;
    ThreadPool *chosen = pool ? pool : &ThreadPool::global();
    return chosen->workerCount() > 1 ? chosen : nullptr;
}

} // namespace

std::shared_ptr<const FftPlan>
acquireFftPlan(std::size_t n)
{
    PlanCache &cache = planCache();
    {
        MutexLock lock(cache.mutex);
        auto it = cache.plans.find(n);
        if (it != cache.plans.end())
            return it->second;
    }
    // Build outside the lock: plan construction may itself acquire a
    // (smaller) inner plan via the Bluestein path, and large twiddle tables
    // should not serialize unrelated lookups.
    auto plan = std::make_shared<const FftPlan>(n);
    MutexLock lock(cache.mutex);
    auto [it, inserted] = cache.plans.emplace(n, std::move(plan));
    return it->second;
}

std::size_t
fftPlanCacheSize()
{
    PlanCache &cache = planCache();
    MutexLock lock(cache.mutex);
    return cache.plans.size();
}

void
clearFftPlanCache()
{
    PlanCache &cache = planCache();
    MutexLock lock(cache.mutex);
    cache.plans.clear();
}

const lanes::LanePlan *
FftPlan::lanePlan() const
{
    if (impl_->bluestein || impl_->lane.n == 0)
        return nullptr;
    return &impl_->lane;
}

namespace {

/**
 * Per-thread full-grid scratch of the 2-D engines: one split re/im plane
 * pair for the lane engine, or one interleaved grid for the per-line
 * fallback (2 * rows * cols Reals). Grown on demand, then reused.
 */
Real *
gridScratch(std::size_t reals)
{
    static thread_local std::vector<Real> buffer;
    if (buffer.size() < reals)
        buffer.resize(reals);
    return buffer.data();
}

/** Run fn(i) for i < count on the pool, or serially without one. */
template <typename Fn>
void
forEach(ThreadPool *pool, std::size_t count, const Fn &fn)
{
    if (pool) {
        pool->parallelFor(count, fn);
        return;
    }
    for (std::size_t i = 0; i < count; ++i)
        fn(i);
}

/** Run fn(lane0, lanes) over the lane blocks of [0, lanes). */
template <typename Fn>
void
forEachLaneBlock(ThreadPool *pool, std::size_t lanes, const Fn &fn)
{
    constexpr std::size_t kW = lanes::kLaneBlock;
    forEach(pool, (lanes + kW - 1) / kW, [&](std::size_t b) {
        const std::size_t lane0 = b * kW;
        fn(lane0, std::min(kW, lanes - lane0));
    });
}

/** dst (cols x rows) = transpose of src (rows x cols), in square tiles. */
void
transposeGrid(const Complex *src, std::size_t rows, std::size_t cols,
              Complex *dst)
{
    constexpr std::size_t kTile = 16;
    for (std::size_t r0 = 0; r0 < rows; r0 += kTile)
        for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
            const std::size_t r1 = std::min(rows, r0 + kTile);
            const std::size_t c1 = std::min(cols, c0 + kTile);
            for (std::size_t c = c0; c < c1; ++c)
                for (std::size_t r = r0; r < r1; ++r)
                    dst[c * rows + r] = src[r * cols + c];
        }
}

/** Per-line transforms of `count` contiguous lines of one plan. */
void
transformLines(const FftPlan &plan, Complex *data, std::size_t count,
               bool inverse, ThreadPool *pool)
{
    const std::size_t n = plan.size();
    forEach(pool, count, [&](std::size_t line) {
        if (inverse)
            plan.inverse(data + line * n);
        else
            plan.forward(data + line * n);
    });
}

/**
 * spectrum *= kernel (conj(kernel) when `conjugate`) over a rows x cols
 * spectrum stored in spectrum order (cols x rows), then the shift ramp of
 * `hop` when non-null: the per-line fallback's Hadamard step.
 */
void
multiplySpectrum(Complex *spectrum, std::size_t rows, std::size_t cols,
                 const Field &kernel, bool conjugate,
                 const HopPerturbation *hop)
{
    const std::size_t cells = rows * cols;
    const Complex *k = kernel.data();
    if (simdKernelsCompiled() && fftKernelMode() == FftKernelMode::Simd) {
        Real *s = reinterpret_cast<Real *>(spectrum);
        const Real *kr = reinterpret_cast<const Real *>(k);
        if (conjugate)
            kernels::cmulConjInterleaved(s, kr, cells);
        else
            kernels::cmulInterleaved(s, kr, cells);
    } else if (conjugate) {
        for (std::size_t i = 0; i < cells; ++i)
            spectrum[i] *= std::conj(k[i]);
    } else {
        for (std::size_t i = 0; i < cells; ++i)
            spectrum[i] *= k[i];
    }
    if (!hop)
        return;
    // Spectrum row kr, column kc sits at [kc][kr]: multiply by
    // ramp_row[kr] * ramp_col[kc], both conjugated on the adjoint.
    for (std::size_t kc = 0; kc < cols; ++kc) {
        const Complex col = conjugate ? std::conj(hop->ramp_col[kc])
                                      : hop->ramp_col[kc];
        Complex *line = spectrum + kc * rows;
        for (std::size_t kr = 0; kr < rows; ++kr) {
            const Complex row = conjugate ? std::conj(hop->ramp_row[kr])
                                          : hop->ramp_row[kr];
            line[kr] *= row * col;
        }
    }
}

} // namespace

Fft2d::Fft2d(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_plan_(acquireFftPlan(cols)),
      col_plan_(rows == cols ? row_plan_ : acquireFftPlan(rows))
{}

void
Fft2d::checkShape(const Field &field) const
{
    if (field.rows() == rows_ && field.cols() == cols_)
        return;
    throw std::invalid_argument(
        "Fft2d: field is " + std::to_string(field.rows()) + "x" +
        std::to_string(field.cols()) + " but the plan is " +
        std::to_string(rows_) + "x" + std::to_string(cols_));
}

bool
Fft2d::usesLaneEngine() const
{
    return simdKernelsCompiled() && fftKernelMode() == FftKernelMode::Simd &&
           row_plan_->lanePlan() && col_plan_->lanePlan();
}

void
Fft2d::transform(Field *field, bool inverse, ThreadPool *pool) const
{
    checkShape(*field);
    pool = fft2dPool(pool, rows_ * cols_);
    const std::size_t cells = rows_ * cols_;
    if (usesLaneEngine()) {
        // Columns (length rows) stored transposed into planes, then the
        // former rows (length cols) stored transposed back, interleaved.
        // The inverse runs the forward on re/im-exchanged data.
        const lanes::LaneKernels &k = lanes::laneKernels();
        Real *s_re = gridScratch(2 * cells), *s_im = s_re + cells;
        Real *data = reinterpret_cast<Real *>(field->data());
        const lanes::LanePlan &col = *col_plan_->lanePlan();
        const lanes::LanePlan &row = *row_plan_->lanePlan();
        forEachLaneBlock(pool, cols_, [&](std::size_t lane0,
                                          std::size_t lanes) {
            k.columnsToPlanesT(col, data, 2 * cols_, rows_, inverse, lane0,
                               lanes, s_re, s_im, rows_);
        });
        const Real scale =
            inverse ? Real(1) / static_cast<Real>(cells) : Real(1);
        forEachLaneBlock(pool, rows_, [&](std::size_t lane0,
                                          std::size_t lanes) {
            k.planesToInterleavedT(row, s_re, s_im, rows_, lane0, lanes,
                                   data, cols_, scale, inverse);
        });
        return;
    }
    // Per-line fallback: rows, then transpose -> rows -> transpose.
    Complex *t = reinterpret_cast<Complex *>(gridScratch(2 * cells));
    transformLines(*row_plan_, field->data(), rows_, inverse, pool);
    transposeGrid(field->data(), rows_, cols_, t);
    transformLines(*col_plan_, t, cols_, inverse, pool);
    transposeGrid(t, cols_, rows_, field->data());
}

void
Fft2d::forward(Field *field, ThreadPool *pool) const
{
    transform(field, false, pool);
}

void
Fft2d::inverse(Field *field, ThreadPool *pool) const
{
    transform(field, true, pool);
}

void
Fft2d::convolveInto(const Field &in, Field &out, const Field &kernel,
                    bool conjugate, const HopPerturbation *hop,
                    PropagationWorkspace &workspace, ThreadPool *pool) const
{
    const std::size_t n_rows = in.rows(), n_cols = in.cols();
    if (n_rows > rows_ || n_cols > cols_)
        throw std::invalid_argument(
            "Fft2d::convolveInto: field is " + std::to_string(n_rows) +
            "x" + std::to_string(n_cols) + " but the plan is " +
            std::to_string(rows_) + "x" + std::to_string(cols_));
    const Field &kern = (hop && hop->kernel) ? *hop->kernel : kernel;
    if (kern.rows() != cols_ || kern.cols() != rows_)
        throw std::invalid_argument(
            "Fft2d::convolveInto: kernel is not in spectrum order");
    const bool shift = hop && hop->has_shift;
    const bool padded = n_rows != rows_ || n_cols != cols_;
    ensureFieldShape(out, n_rows, n_cols);
    pool = fft2dPool(pool, rows_ * cols_);
    const std::size_t cells = rows_ * cols_;
    const Real scale = Real(1) / static_cast<Real>(cells);
    // The hop's own buffers: `out` holds the full-size grid between the
    // two halves (a padded hop leases it from the workspace instead); the
    // transposed spectrum lives in this thread's grid scratch.
    std::optional<WorkspaceField> padded_grid;
    if (padded)
        padded_grid.emplace(workspace, rows_, cols_);
    Complex *grid = padded ? (*padded_grid)->data() : out.data();
    Real *scratch = gridScratch(2 * cells);

    if (usesLaneEngine()) {
        // Columns of the zero-extended input -> S (cols x rows planes);
        // per lane block of S: forward along the former rows, kernel
        // product, inverse -> grid (interleaved, the n_cols kept columns);
        // the inverse along the columns -> out. Everything after the
        // forward runs on re/im-exchanged data, swapped back by the last
        // store.
        const lanes::LaneKernels &k = lanes::laneKernels();
        Real *s_re = scratch, *s_im = scratch + cells;
        const lanes::LanePlan &col = *col_plan_->lanePlan();
        const lanes::LanePlan &row = *row_plan_->lanePlan();
        forEachLaneBlock(pool, n_cols, [&](std::size_t lane0,
                                           std::size_t lanes) {
            k.columnsToPlanesT(col, reinterpret_cast<const Real *>(in.data()),
                               2 * n_cols, n_rows, false, lane0, lanes, s_re,
                               s_im, rows_);
        });
        std::fill(s_re + n_cols * rows_, s_re + cells, Real(0));
        std::fill(s_im + n_cols * rows_, s_im + cells, Real(0));
        lanes::LaneRamp ramp;
        if (shift)
            ramp = {reinterpret_cast<const Real *>(hop->ramp_row.data()),
                    reinterpret_cast<const Real *>(hop->ramp_col.data())};
        const Real *kernel_data = reinterpret_cast<const Real *>(kern.data());
        Real *g = reinterpret_cast<Real *>(grid);
        forEachLaneBlock(pool, rows_, [&](std::size_t lane0,
                                          std::size_t lanes) {
            k.hopMiddle(row, s_re, s_im, rows_, lane0, lanes, kernel_data,
                        rows_, conjugate, shift ? &ramp : nullptr, g, cols_,
                        n_cols);
        });
        Real *dst = reinterpret_cast<Real *>(out.data());
        forEachLaneBlock(pool, n_cols, [&](std::size_t lane0,
                                           std::size_t lanes) {
            k.hopLast(col, g, cols_, lane0, lanes, dst, n_cols, n_rows,
                      scale);
        });
        return;
    }

    // Per-line fallback on interleaved grids: the zero-extended input in
    // `grid` (rows x cols), its transposed spectrum in t (cols x rows).
    Complex *t = reinterpret_cast<Complex *>(scratch);
    if (padded) {
        std::fill(grid, grid + cells, Complex{0, 0});
        for (std::size_t r = 0; r < n_rows; ++r)
            std::copy(in.data() + r * n_cols, in.data() + (r + 1) * n_cols,
                      grid + r * cols_);
    } else if (&out != &in) {
        std::copy(in.data(), in.data() + cells, grid);
    }
    transformLines(*row_plan_, grid, rows_, false, pool);
    transposeGrid(grid, rows_, cols_, t);
    transformLines(*col_plan_, t, cols_, false, pool);
    multiplySpectrum(t, rows_, cols_, kern, conjugate, shift ? hop : nullptr);
    transformLines(*col_plan_, t, cols_, true, pool);
    transposeGrid(t, cols_, rows_, grid);
    transformLines(*row_plan_, grid, rows_, true, pool);
    if (padded)
        for (std::size_t r = 0; r < n_rows; ++r)
            std::copy(grid + r * cols_, grid + r * cols_ + n_cols,
                      out.data() + r * n_cols);
}

void
transposeSpectrum(const Field &natural, Field &spectrum)
{
    ensureFieldShape(spectrum, natural.cols(), natural.rows());
    transposeGrid(natural.data(), natural.rows(), natural.cols(),
                  spectrum.data());
}

namespace {

Field
circularShift(const Field &in, std::size_t dr, std::size_t dc)
{
    Field out(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        std::size_t rr = (r + dr) % in.rows();
        for (std::size_t c = 0; c < in.cols(); ++c) {
            std::size_t cc = (c + dc) % in.cols();
            out(rr, cc) = in(r, c);
        }
    }
    return out;
}

} // namespace

Field
fftshift(const Field &in)
{
    return circularShift(in, in.rows() / 2, in.cols() / 2);
}

Field
ifftshift(const Field &in)
{
    return circularShift(in, in.rows() - in.rows() / 2,
                         in.cols() - in.cols() / 2);
}

std::size_t
nextFastLength(std::size_t n)
{
    if (n == 0)
        return 1;
    for (;; ++n) {
        std::size_t rem = n;
        for (std::size_t p : {2, 3, 5, 7})
            while (rem % p == 0)
                rem /= p;
        if (rem == 1)
            return n;
    }
}

} // namespace lightridge
