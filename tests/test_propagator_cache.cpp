/**
 * @file
 * Regression tests for the propagation caching layer introduced with the
 * batched engine: the process-wide FFT plan cache, the transfer-function
 * cache, and the batched/threaded forward path. The contract under test is
 * strict: every cached path must be *bitwise-identical* to recomputing
 * from scratch, and the caches must actually be hit (and be faster) so a
 * refactor cannot silently fall back to the uncached path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/diffractive_layer.hpp"
#include "core/model.hpp"
#include "fft/fft.hpp"
#include "fft/kernels.hpp"
#include "optics/perturbation.hpp"
#include "optics/propagator.hpp"
#include "optics/workspace.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"
#include "utils/timer.hpp"

namespace lightridge {
namespace {

PropagatorConfig
referenceConfig(std::size_t n = 64)
{
    PropagatorConfig config;
    config.grid = Grid{n, 36e-6};
    config.wavelength = 532e-9;
    config.distance = 0.25;
    return config;
}

Field
randomField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

/** True only if every sample matches bit for bit. */
bool
bitwiseEqual(const Field &a, const Field &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

TEST(TransferFunctionCache, SecondPropagatorHitsCache)
{
    clearTransferFunctionCache();
    PropagatorConfig config = referenceConfig();

    Propagator first(config);
    TransferFunctionCacheStats after_first = transferFunctionCacheStats();
    EXPECT_EQ(after_first.entries, 1u);
    EXPECT_EQ(after_first.misses, 1u);

    Propagator second(config);
    TransferFunctionCacheStats after_second = transferFunctionCacheStats();
    EXPECT_EQ(after_second.entries, 1u);
    EXPECT_EQ(after_second.hits, after_first.hits + 1);

    // The shared kernel is one object, not merely an equal copy.
    EXPECT_EQ(&first.kernel(), &second.kernel());
}

/**
 * The cache holds each kernel in spectrum order (the transpose of the
 * natural-order transfer function), built once: it must equal the
 * uncached kernel stored the same way, bit for bit.
 */
TEST(TransferFunctionCache, CachedKernelBitwiseMatchesUncached)
{
    clearTransferFunctionCache();
    PropagatorConfig config = referenceConfig();
    Propagator cached(config);

    Field uncached;
    transposeSpectrum(transferFunction(config.approx, config.method,
                                       config.grid, config.wavelength,
                                       config.distance),
                      uncached);
    EXPECT_TRUE(bitwiseEqual(cached.kernel(), uncached));
}

/** Perturbed-distance entries are cached in spectrum order too. */
TEST(TransferFunctionCache, PerturbedDistanceKernelInSpectrumOrder)
{
    clearTransferFunctionCache();
    PropagatorConfig config = referenceConfig(48);
    config.pad_factor = 2;
    Propagator prop(config);
    const Real dz = 0.01;
    HopPerturbation hop;
    fillHopPerturbation(prop, 0.0, 0.0, dz, hop);
    ASSERT_NE(hop.kernel, nullptr);

    const Grid padded{prop.paddedSize(), config.grid.pitch};
    Field uncached;
    transposeSpectrum(transferFunction(config.approx, config.method, padded,
                                       config.wavelength,
                                       config.distance + dz),
                      uncached);
    EXPECT_TRUE(bitwiseEqual(*hop.kernel, uncached));
}

/**
 * A perturbed-distance hop (with a shift ramp) through the fused
 * convolveInto against the same hop run in natural order: forward FFT,
 * natural-order kernel at z + dz, ramp, inverse FFT, crop.
 */
TEST(TransferFunctionCache, PerturbedHopMatchesNaturalOrderPipeline)
{
    for (FftKernelMode mode : {FftKernelMode::Scalar, FftKernelMode::Simd}) {
        FftKernelModeGuard guard(mode);
        PropagatorConfig config = referenceConfig(48);
        config.pad_factor = 2;
        Propagator prop(config);
        const std::size_t p = prop.paddedSize();
        HopPerturbation hop;
        fillHopPerturbation(prop, 2 * config.grid.pitch, -config.grid.pitch,
                            0.01, hop);
        ASSERT_TRUE(hop.has_shift);
        const Grid padded{p, config.grid.pitch};
        const Field natural_kernel =
            transferFunction(config.approx, config.method, padded,
                             config.wavelength, config.distance + hop.dz);
        const Field input = randomField(config.grid.n, 37);
        PropagationWorkspace workspace;
        Fft2d fft(p, p);
        for (bool adjoint : {false, true}) {
            Field fused;
            if (adjoint)
                prop.adjointInto(input, fused, workspace, &hop);
            else
                prop.forwardInto(input, fused, workspace, &hop);

            Field work(p, p);
            for (std::size_t r = 0; r < config.grid.n; ++r)
                for (std::size_t c = 0; c < config.grid.n; ++c)
                    work(r, c) = input(r, c);
            fft.forward(&work);
            for (std::size_t r = 0; r < p; ++r)
                for (std::size_t c = 0; c < p; ++c) {
                    Complex g = natural_kernel(r, c) * hop.ramp_row[r] *
                                hop.ramp_col[c];
                    work(r, c) *= adjoint ? std::conj(g) : g;
                }
            fft.inverse(&work);
            Real worst = 0;
            for (std::size_t r = 0; r < config.grid.n; ++r)
                for (std::size_t c = 0; c < config.grid.n; ++c)
                    worst = std::max(worst,
                                     std::abs(fused(r, c) - work(r, c)));
            EXPECT_LE(worst, kFftKernelTolerance * static_cast<Real>(p))
                << (adjoint ? "adjoint" : "forward")
                << (mode == FftKernelMode::Simd ? " simd" : " scalar");
        }
    }
}

TEST(TransferFunctionCache, CachedForwardBitwiseMatchesUncachedPath)
{
    PropagatorConfig config = referenceConfig();
    Field input = randomField(config.grid.n, 17);

    // Uncached reference: fresh caches, first propagator computes its
    // kernel from scratch.
    clearTransferFunctionCache();
    clearFftPlanCache();
    Field reference = Propagator(config).forward(input);

    // Cached path: a second propagator takes the kernel and plans from
    // the warm caches.
    Propagator warm(config);
    EXPECT_GT(transferFunctionCacheStats().hits, 0u);
    EXPECT_TRUE(bitwiseEqual(warm.forward(input), reference));
    EXPECT_TRUE(bitwiseEqual(warm.adjoint(input),
                             Propagator(config).adjoint(input)));
}

/**
 * The cached-vs-uncached bitwise contract must hold under every kernel
 * set: within one mode the engine is deterministic, so warm-cache and
 * cold-cache propagation stay bit-for-bit equal whether the inner loops
 * are the scalar reference or the vectorized SoA kernels.
 */
class KernelModeCacheParity : public ::testing::TestWithParam<FftKernelMode>
{};

TEST_P(KernelModeCacheParity, CachedForwardBitwiseMatchesUncached)
{
    FftKernelModeGuard guard(GetParam());
    PropagatorConfig config = referenceConfig();
    Field input = randomField(config.grid.n, 29);

    clearTransferFunctionCache();
    clearFftPlanCache();
    Field reference = Propagator(config).forward(input);

    Propagator warm(config);
    EXPECT_GT(transferFunctionCacheStats().hits, 0u);
    EXPECT_TRUE(bitwiseEqual(warm.forward(input), reference));
    EXPECT_TRUE(bitwiseEqual(warm.adjoint(input),
                             Propagator(config).adjoint(input)));
}

INSTANTIATE_TEST_SUITE_P(
    BothKernelSets, KernelModeCacheParity,
    ::testing::Values(FftKernelMode::Scalar, FftKernelMode::Simd),
    [](const ::testing::TestParamInfo<FftKernelMode> &info) {
        return info.param == FftKernelMode::Simd ? std::string("Simd")
                                                 : std::string("Scalar");
    });

/**
 * Scalar-vs-SIMD propagation is NOT bitwise (the SoA kernels reassociate
 * reductions); the contract is the explicit kFftKernelTolerance bound
 * from fft/kernels.hpp, scaled by the transform length. Unit-magnitude
 * inputs through one hop stay well inside it.
 */
TEST(KernelModeCacheParity, ScalarVsSimdWithinPinnedTolerance)
{
    if (!simdKernelsCompiled())
        GTEST_SKIP() << "SIMD kernels not compiled (LIGHTRIDGE_SIMD=OFF)";
    PropagatorConfig config = referenceConfig();
    Field input = randomField(config.grid.n, 31);
    Propagator prop(config);

    Field scalar_out, simd_out;
    {
        FftKernelModeGuard guard(FftKernelMode::Scalar);
        scalar_out = prop.forward(input);
    }
    {
        FftKernelModeGuard guard(FftKernelMode::Simd);
        simd_out = prop.forward(input);
    }
    const Real bound =
        kFftKernelTolerance * static_cast<Real>(config.grid.n);
    EXPECT_GT(maxAbsDiff(scalar_out, simd_out), 0.0)
        << "modes produced identical bits; the SIMD path is likely not "
           "being exercised";
    EXPECT_LE(maxAbsDiff(scalar_out, simd_out), bound);
}

/**
 * Eviction follows true LRU order through the O(1) intrusive recency
 * list: touching an entry protects it, and overflow always drops the
 * least recently used key — observable through hit/miss deltas at a
 * small test capacity.
 */
TEST(TransferFunctionCache, EvictionFollowsLruOrder)
{
    clearTransferFunctionCache();
    std::size_t previous = setTransferFunctionCacheCapacity(3);

    auto config_at = [](Real distance) {
        PropagatorConfig config = referenceConfig(8);
        config.distance = distance;
        return config;
    };
    auto touch = [&](Real distance) {
        PropagatorConfig c = config_at(distance);
        acquireTransferFunction(c.approx, c.method, c.grid, c.wavelength,
                                c.distance);
    };
    auto misses = [] { return transferFunctionCacheStats().misses; };

    touch(0.10); // k0
    touch(0.11); // k1
    touch(0.12); // k2  -> cache [k2 k1 k0], 3 misses
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);
    EXPECT_EQ(misses(), 3u);

    touch(0.10); // hit: k0 becomes most recent -> [k0 k2 k1]
    EXPECT_EQ(misses(), 3u);
    EXPECT_EQ(transferFunctionCacheStats().hits, 1u);

    touch(0.13); // k3 evicts k1 (the LRU), not the just-touched k0
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);
    EXPECT_EQ(misses(), 4u);

    touch(0.10); // k0 still resident
    touch(0.12); // k2 still resident
    touch(0.13); // k3 still resident
    EXPECT_EQ(misses(), 4u);

    touch(0.11); // k1 was evicted -> miss (and k0, LRU by now, goes)
    EXPECT_EQ(misses(), 5u);
    EXPECT_EQ(transferFunctionCacheStats().entries, 3u);

    setTransferFunctionCacheCapacity(previous);
    clearTransferFunctionCache();
}

TEST(TransferFunctionCache, CapacityShrinkEvictsImmediately)
{
    clearTransferFunctionCache();
    std::size_t previous = setTransferFunctionCacheCapacity(4);
    for (int i = 0; i < 4; ++i) {
        PropagatorConfig config = referenceConfig(8);
        config.distance = 0.2 + 0.01 * i;
        acquireTransferFunction(config.approx, config.method, config.grid,
                                config.wavelength, config.distance);
    }
    EXPECT_EQ(transferFunctionCacheStats().entries, 4u);
    setTransferFunctionCacheCapacity(2);
    EXPECT_EQ(transferFunctionCacheStats().entries, 2u);
    EXPECT_THROW(setTransferFunctionCacheCapacity(0), std::invalid_argument);
    setTransferFunctionCacheCapacity(previous);
    clearTransferFunctionCache();
}

TEST(TransferFunctionCache, DistinctConfigsGetDistinctKernels)
{
    clearTransferFunctionCache();
    PropagatorConfig a = referenceConfig();
    PropagatorConfig b = referenceConfig();
    b.distance = 0.35;

    Propagator pa(a);
    Propagator pb(b);
    EXPECT_EQ(transferFunctionCacheStats().entries, 2u);
    EXPECT_FALSE(bitwiseEqual(pa.kernel(), pb.kernel()));
}

TEST(FftPlanCache, PlansAreSharedPerLength)
{
    clearFftPlanCache();
    auto a = acquireFftPlan(96);
    auto b = acquireFftPlan(96);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(fftPlanCacheSize(), 1u);

    auto c = acquireFftPlan(100);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(fftPlanCacheSize(), 2u);
}

TEST(FftPlanCache, SharedPlanTransformsIdenticallyToFresh)
{
    const std::size_t n = 60;
    clearFftPlanCache();
    FftPlan fresh(n);
    auto shared = acquireFftPlan(n);

    Rng rng(5);
    std::vector<Complex> x(n);
    for (auto &v : x)
        v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<Complex> via_fresh = x;
    std::vector<Complex> via_shared = x;
    fresh.forward(via_fresh.data());
    shared->forward(via_shared.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(via_fresh[i].real(), via_shared[i].real()) << "i=" << i;
        EXPECT_EQ(via_fresh[i].imag(), via_shared[i].imag()) << "i=" << i;
    }
}

/**
 * Micro-benchmark-backed regression: constructing a propagator from the
 * warm cache must be faster than computing the kernel from scratch. The
 * margin is enormous in practice (a hit is a map lookup, a miss is O(n^2)
 * transcendentals plus plan construction), so comparing medians of a few
 * repetitions is robust even on loaded CI machines.
 */
TEST(TransferFunctionCache, WarmConstructionFasterThanCold)
{
    PropagatorConfig config = referenceConfig(128);
    auto median_ms = [](std::vector<double> samples) {
        std::sort(samples.begin(), samples.end());
        return samples[samples.size() / 2];
    };

    std::vector<double> cold_ms;
    for (int r = 0; r < 3; ++r) {
        clearTransferFunctionCache();
        clearFftPlanCache();
        WallTimer timer;
        Propagator p(config);
        cold_ms.push_back(timer.milliseconds());
    }

    std::vector<double> warm_ms;
    Propagator keep_warm(config); // ensure the caches stay populated
    for (int r = 0; r < 3; ++r) {
        WallTimer timer;
        Propagator p(config);
        warm_ms.push_back(timer.milliseconds());
    }

    EXPECT_LT(median_ms(warm_ms), median_ms(cold_ms))
        << "cold=" << median_ms(cold_ms) << "ms warm=" << median_ms(warm_ms)
        << "ms";
}

TEST(BatchedForward, MatchesSerialInferenceBitwise)
{
    const std::size_t n = 48;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.2;
    Rng rng(9);
    DonnModel model(spec, Laser{});
    for (std::size_t l = 0; l < 3; ++l)
        model.addLayer(std::make_unique<DiffractiveLayer>(
            model.hopPropagator(), 1.0, &rng));

    std::vector<Field> inputs;
    for (std::size_t b = 0; b < 8; ++b)
        inputs.push_back(randomField(n, 100 + b));

    ThreadPool pool(4); // real threads even on single-core hosts
    std::vector<Field> batched = model.forwardFieldBatch(inputs, &pool);
    ASSERT_EQ(batched.size(), inputs.size());
    for (std::size_t b = 0; b < inputs.size(); ++b)
        EXPECT_TRUE(bitwiseEqual(batched[b], model.inferField(inputs[b])))
            << "sample " << b;

    // The default-pool overload must agree as well.
    std::vector<Field> global_pool = model.forwardFieldBatch(inputs);
    for (std::size_t b = 0; b < inputs.size(); ++b)
        EXPECT_TRUE(bitwiseEqual(global_pool[b], batched[b]))
            << "sample " << b;
}

TEST(BatchedForward, InferFieldMatchesForwardField)
{
    const std::size_t n = 32;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.15;
    Rng rng(21);
    DonnModel model(spec, Laser{});
    model.addLayer(std::make_unique<DiffractiveLayer>(model.hopPropagator(),
                                                      1.0, &rng));
    Field input = randomField(n, 33);
    EXPECT_TRUE(bitwiseEqual(model.inferField(input),
                             model.forwardField(input, false)));
}

} // namespace
} // namespace lightridge
