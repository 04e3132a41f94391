#include "optics/propagator.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <list>
#include <stdexcept>
#include <unordered_map>

#include "fft/kernels.hpp"
#include "optics/perturbation.hpp"
#include "utils/sync.hpp"

namespace lightridge {

namespace {

/** Exact-bit-pattern key for one (approx, method, grid, lambda, z) tuple. */
struct KernelKey
{
    int approx;
    int method;
    std::size_t n;
    uint64_t pitch_bits;
    uint64_t wavelength_bits;
    uint64_t z_bits;

    bool operator==(const KernelKey &) const = default;
};

uint64_t
realBits(Real v)
{
    uint64_t bits = 0;
    static_assert(sizeof(Real) == sizeof(uint64_t));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

struct KernelKeyHash
{
    std::size_t
    operator()(const KernelKey &k) const
    {
        // FNV-1a over the key fields.
        uint64_t h = 1469598103934665603ull;
        auto mix = [&h](uint64_t v) {
            h = (h ^ v) * 1099511628211ull;
        };
        mix(static_cast<uint64_t>(k.approx));
        mix(static_cast<uint64_t>(k.method));
        mix(static_cast<uint64_t>(k.n));
        mix(k.pitch_bits);
        mix(k.wavelength_bits);
        mix(k.z_bits);
        return static_cast<std::size_t>(h);
    }
};

/**
 * Bounded LRU: a long DSE sweep visits many (grid, wavelength, distance)
 * tuples it will never revisit; without a cap every padded n^2 kernel
 * would stay resident for the life of the process. Evicted kernels stay
 * alive as long as some Propagator still holds the shared_ptr.
 *
 * Recency is an intrusive list in MRU->LRU order; each map entry holds its
 * list position, so a hit is an O(1) splice and eviction pops the tail —
 * the old linear scan over every entry on insert is gone.
 */
constexpr std::size_t kMaxCachedKernels = 64;

struct KernelEntry
{
    std::shared_ptr<const Field> kernel;
    std::list<KernelKey>::iterator lru_pos;
};

struct KernelCache
{
    Mutex mutex;
    std::unordered_map<KernelKey, KernelEntry, KernelKeyHash> kernels
        LIGHTRIDGE_GUARDED_BY(mutex);
    std::list<KernelKey> lru
        LIGHTRIDGE_GUARDED_BY(mutex); // front = most recently used
    std::size_t capacity LIGHTRIDGE_GUARDED_BY(mutex) = kMaxCachedKernels;
    std::size_t hits LIGHTRIDGE_GUARDED_BY(mutex) = 0;
    std::size_t misses LIGHTRIDGE_GUARDED_BY(mutex) = 0;

    /** Drop least-recently-used entries down to the capacity. */
    void
    evictExcess() LIGHTRIDGE_REQUIRES(mutex)
    {
        while (kernels.size() > capacity && !lru.empty()) {
            kernels.erase(lru.back());
            lru.pop_back();
        }
    }
};

KernelCache &
kernelCache()
{
    static KernelCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const Field>
acquireTransferFunction(Diffraction approx, PropagationMethod method,
                        const Grid &grid, Real wavelength, Real z)
{
    KernelKey key{static_cast<int>(approx), static_cast<int>(method), grid.n,
                  realBits(grid.pitch), realBits(wavelength), realBits(z)};
    KernelCache &cache = kernelCache();
    {
        MutexLock lock(cache.mutex);
        auto it = cache.kernels.find(key);
        if (it != cache.kernels.end()) {
            ++cache.hits;
            cache.lru.splice(cache.lru.begin(), cache.lru,
                             it->second.lru_pos);
            return it->second.kernel;
        }
        ++cache.misses;
    }
    // Compute outside the lock (O(n^2) transcendentals, possibly an FFT2);
    // concurrent first-touch of the same key wastes one computation but
    // stays correct because the result is deterministic.
    // Stored in spectrum order, the layout Fft2d::convolveInto reads.
    auto spectrum = std::make_shared<Field>();
    transposeSpectrum(transferFunction(approx, method, grid, wavelength, z),
                      *spectrum);
    std::shared_ptr<const Field> kernel = std::move(spectrum);
    MutexLock lock(cache.mutex);
    auto it = cache.kernels.find(key);
    if (it != cache.kernels.end()) {
        // Another thread won the race; adopt its entry.
        cache.lru.splice(cache.lru.begin(), cache.lru, it->second.lru_pos);
        return it->second.kernel;
    }
    cache.lru.push_front(key);
    it = cache.kernels
             .emplace(key, KernelEntry{std::move(kernel), cache.lru.begin()})
             .first;
    std::shared_ptr<const Field> result = it->second.kernel;
    cache.evictExcess();
    return result;
}

TransferFunctionCacheStats
transferFunctionCacheStats()
{
    KernelCache &cache = kernelCache();
    MutexLock lock(cache.mutex);
    return {cache.kernels.size(), cache.hits, cache.misses};
}

void
clearTransferFunctionCache()
{
    KernelCache &cache = kernelCache();
    MutexLock lock(cache.mutex);
    cache.kernels.clear();
    cache.lru.clear();
    cache.hits = 0;
    cache.misses = 0;
}

std::size_t
transferFunctionCacheCapacity()
{
    KernelCache &cache = kernelCache();
    MutexLock lock(cache.mutex);
    return cache.capacity;
}

std::size_t
setTransferFunctionCacheCapacity(std::size_t capacity)
{
    if (capacity == 0)
        throw std::invalid_argument(
            "setTransferFunctionCacheCapacity: capacity must be >= 1");
    KernelCache &cache = kernelCache();
    MutexLock lock(cache.mutex);
    std::size_t previous = cache.capacity;
    cache.capacity = capacity;
    cache.evictExcess();
    return previous;
}

Propagator::Propagator(const PropagatorConfig &config) : config_(config)
{
    const std::size_t n = config_.grid.n;
    if (n == 0)
        throw std::invalid_argument("Propagator: empty grid");
    if (config_.pad_factor == 0)
        throw std::invalid_argument("Propagator: pad_factor must be >= 1");

    if (config_.approx == Diffraction::Fraunhofer) {
        padded_n_ = n;
        fft_ = std::make_shared<Fft2d>(n, n);
        // Output-plane quadratic phase and scale of Eq. 4, folded together
        // with the centered-DFT sign factors (-1)^(a+b) and the constant
        // exp(-j*pi*n) from the half-sample shifts.
        const Real lambda = config_.wavelength;
        const Real z = config_.distance;
        const Real k = waveNumber(lambda);
        const Real out_pitch = outputPitch();
        quad_phase_ = Field(n, n);
        const Complex scale =
            std::polar(Real(1), k * z) / (kJ * lambda * z) *
            config_.grid.pitch * config_.grid.pitch *
            std::polar(Real(1), -kPi * static_cast<Real>(n));
        for (std::size_t a = 0; a < n; ++a) {
            Real v = (static_cast<Real>(a) - static_cast<Real>(n) / 2) *
                     out_pitch;
            for (std::size_t b = 0; b < n; ++b) {
                Real u = (static_cast<Real>(b) - static_cast<Real>(n) / 2) *
                         out_pitch;
                Real sign = ((a + b) % 2 == 0) ? Real(1) : Real(-1);
                quad_phase_(a, b) =
                    scale * sign *
                    std::polar(Real(1), k * (u * u + v * v) / (2 * z));
            }
        }
        return;
    }

    padded_n_ = config_.pad_factor == 1
                    ? n
                    : nextFastLength(config_.pad_factor * n);
    Grid padded{padded_n_, config_.grid.pitch};
    kernel_ = acquireTransferFunction(config_.approx, config_.method, padded,
                                      config_.wavelength, config_.distance);
    fft_ = std::make_shared<Fft2d>(padded_n_, padded_n_);
}

const Field &
Propagator::kernel() const
{
    static const Field empty;
    return kernel_ ? *kernel_ : empty;
}

Real
Propagator::outputPitch() const
{
    if (config_.approx == Diffraction::Fraunhofer) {
        return config_.wavelength * config_.distance /
               (static_cast<Real>(config_.grid.n) * config_.grid.pitch);
    }
    return config_.grid.pitch;
}

void
Propagator::convolveInto(const Field &in, Field &out,
                         bool conjugate_kernel,
                         PropagationWorkspace &workspace,
                         const HopPerturbation *hop) const
{
    const std::size_t n = config_.grid.n;
    if (in.rows() != n || in.cols() != n)
        throw std::invalid_argument("Propagator: field shape mismatch");
    // Pad, FFT2, kernel (and shift-ramp) product, iFFT2 and crop in one
    // pass over the padded plan; the kernel is cached in spectrum order.
    fft_->convolveInto(in, out, *kernel_, conjugate_kernel, hop, workspace);
}

void
Propagator::fraunhoferForwardInto(const Field &in, Field &out) const
{
    const std::size_t n = config_.grid.n;
    if (in.rows() != n || in.cols() != n)
        throw std::invalid_argument("Propagator: field shape mismatch");
    if (&out != &in)
        ensureFieldShape(out, n, n);
    if (fftKernelMode() == FftKernelMode::Simd) {
        for (std::size_t r = 0; r < n; ++r)
            kernels::copySignAlternating(
                reinterpret_cast<Real *>(out.data() + r * n),
                reinterpret_cast<const Real *>(in.data() + r * n), n,
                /*negate_first=*/(r % 2) != 0);
    } else {
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) {
                Real sign = ((r + c) % 2 == 0) ? Real(1) : Real(-1);
                out(r, c) = in(r, c) * sign;
            }
    }
    fft_->forward(&out);
    out.hadamard(quad_phase_);
}

void
Propagator::fraunhoferAdjointInto(const Field &grad_out, Field &out) const
{
    const std::size_t n = config_.grid.n;
    if (grad_out.rows() != n || grad_out.cols() != n)
        throw std::invalid_argument("Propagator: field shape mismatch");
    if (&out != &grad_out) {
        ensureFieldShape(out, n, n);
        std::copy(grad_out.data(), grad_out.data() + grad_out.size(),
                  out.data());
    }
    out.hadamardConj(quad_phase_);
    fft_->inverse(&out);
    const Real n2 = static_cast<Real>(n) * static_cast<Real>(n);
    // inverse() scales by 1/N^2; the adjoint of an unnormalized forward
    // DFT is N^2 times the inverse, fused here with the sign checkerboard.
    if (fftKernelMode() == FftKernelMode::Simd) {
        for (std::size_t r = 0; r < n; ++r)
            kernels::scaleSignAlternating(
                reinterpret_cast<Real *>(out.data() + r * n), n2, n,
                /*negate_first=*/(r % 2) != 0);
    } else {
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c) {
                Real sign = ((r + c) % 2 == 0) ? Real(1) : Real(-1);
                out(r, c) *= sign * n2;
            }
    }
}

void
Propagator::forwardInto(const Field &in, Field &out,
                        PropagationWorkspace &workspace,
                        const HopPerturbation *hop) const
{
    if (config_.approx == Diffraction::Fraunhofer) {
        if (hop && hop->any())
            throw std::logic_error(
                "Propagator: perturbations are not supported on "
                "Fraunhofer hops");
        fraunhoferForwardInto(in, out);
        return;
    }
    convolveInto(in, out, /*conjugate_kernel=*/false, workspace, hop);
}

void
Propagator::adjointInto(const Field &grad_out, Field &out,
                        PropagationWorkspace &workspace,
                        const HopPerturbation *hop) const
{
    if (config_.approx == Diffraction::Fraunhofer) {
        if (hop && hop->any())
            throw std::logic_error(
                "Propagator: perturbations are not supported on "
                "Fraunhofer hops");
        fraunhoferAdjointInto(grad_out, out);
        return;
    }
    convolveInto(grad_out, out, /*conjugate_kernel=*/true, workspace, hop);
}

Field
Propagator::forward(const Field &in) const
{
    Field out;
    forwardInto(in, out, PropagationWorkspace::threadLocal());
    return out;
}

Field
Propagator::adjoint(const Field &grad_out) const
{
    Field out;
    adjointInto(grad_out, out, PropagationWorkspace::threadLocal());
    return out;
}

} // namespace lightridge
