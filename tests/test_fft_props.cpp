/**
 * @file
 * Property-based spectral harness for the kernel-dispatch FFT engine.
 *
 * Randomized transform lengths drawn from the three algorithm families
 * (power-of-two radix-2/4, smooth mixed-radix, prime > 31 Bluestein) are
 * checked against the shared oracle for the DFT properties that matter to
 * propagation numerics — oracle agreement, inverse round-trip, Parseval
 * energy conservation, linearity — and every property runs under both the
 * Scalar and the Simd kernel sets. A final suite pins the scalar-vs-SIMD
 * agreement contract (kFftKernelTolerance) and the bitwise determinism of
 * the row-parallel FFT2 split.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "fft/kernels.hpp"
#include "optics/propagator.hpp"
#include "oracle/dft_oracle.hpp"
#include "utils/rng.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {
namespace {

std::vector<Complex>
randomSignal(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> x(n);
    for (auto &v : x)
        v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return x;
}

Field
randomUnitField(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    Field f(n, n);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

/**
 * Deterministic randomized size generators, one per algorithm family.
 * Seeded per family so failures reproduce; each run covers the same
 * sizes, which keeps CI stable while still sampling awkward lengths.
 */
std::vector<std::size_t>
powerOfTwoSizes()
{
    Rng rng(101);
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 6; ++i)
        sizes.push_back(std::size_t(1) << rng.randint(1, 9)); // 2..512
    return sizes;
}

std::vector<std::size_t>
mixedRadixSizes()
{
    Rng rng(202);
    std::vector<std::size_t> sizes;
    while (sizes.size() < 8) {
        // Random smooth composite from factors {2,3,5,7}, bounded so the
        // O(n^2) oracle stays fast; odd-only products exercise plans with
        // no radix-2/4 level at all.
        std::size_t n = 1;
        const std::size_t primes[] = {2, 3, 5, 7};
        for (int f = 0; f < 5 && n < 400; ++f)
            n *= primes[rng.randint(0, 3)];
        if (n >= 6 && n <= 700)
            sizes.push_back(n);
    }
    return sizes;
}

std::vector<std::size_t>
bluesteinPrimeSizes()
{
    // Primes > kMaxDirectRadix = 31: every one takes the chirp-z path.
    Rng rng(303);
    const std::vector<std::size_t> primes{37,  41,  53,  61,  79,  101,
                                          127, 149, 211, 257, 331, 401};
    std::vector<std::size_t> sizes;
    for (int i = 0; i < 6; ++i)
        sizes.push_back(
            primes[rng.randint(0, static_cast<int64_t>(primes.size()) - 1)]);
    return sizes;
}

struct FamilyParam
{
    const char *family;
    FftKernelMode mode;
};

std::string
paramName(const ::testing::TestParamInfo<FamilyParam> &info)
{
    std::string name = info.param.family;
    name += info.param.mode == FftKernelMode::Simd ? "_Simd" : "_Scalar";
    return name;
}

class FftPropertyTest : public ::testing::TestWithParam<FamilyParam>
{
  protected:
    void
    SetUp() override
    {
        // In a SIMD-off build, requesting Simd falls back to Scalar; the
        // properties must hold there too, so the suite still runs (the
        // cross-kernel comparison suite is the one that skips instead).
        guard_.emplace(GetParam().mode);
    }

    std::vector<std::size_t>
    sizes() const
    {
        std::string family = GetParam().family;
        if (family == "PowerOfTwo")
            return powerOfTwoSizes();
        if (family == "MixedRadix")
            return mixedRadixSizes();
        return bluesteinPrimeSizes();
    }

  private:
    std::optional<FftKernelModeGuard> guard_;
};

TEST_P(FftPropertyTest, ForwardMatchesOracle)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 1000 + n);
        auto fast = x;
        plan.forward(fast.data());
        auto slow = oracle::dft1d(x, -1);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(fast[i] - slow[i]), 0.0, 1e-8 * n)
                << "n=" << n << " i=" << i;
    }
}

TEST_P(FftPropertyTest, InverseRoundTripRecoversInput)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 2000 + n);
        auto y = x;
        plan.forward(y.data());
        plan.inverse(y.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-9)
                << "n=" << n << " i=" << i;
    }
}

TEST_P(FftPropertyTest, ParsevalEnergyConserved)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto x = randomSignal(n, 3000 + n);
        Real time_energy = 0;
        for (const auto &v : x)
            time_energy += std::norm(v);
        plan.forward(x.data());
        Real freq_energy = 0;
        for (const auto &v : x)
            freq_energy += std::norm(v);
        EXPECT_NEAR(freq_energy, time_energy * n, 1e-7 * n * n)
            << "n=" << n;
    }
}

TEST_P(FftPropertyTest, TransformIsLinear)
{
    for (std::size_t n : sizes()) {
        FftPlan plan(n);
        auto a = randomSignal(n, 4000 + n);
        auto b = randomSignal(n, 5000 + n);
        const Complex ca{0.7, -0.3}, cb{-1.1, 0.2};
        std::vector<Complex> combined(n);
        for (std::size_t i = 0; i < n; ++i)
            combined[i] = ca * a[i] + cb * b[i];
        plan.forward(combined.data());
        plan.forward(a.data());
        plan.forward(b.data());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(combined[i] - (ca * a[i] + cb * b[i])),
                        0.0, 1e-8 * n)
                << "n=" << n << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FftPropertyTest,
    ::testing::Values(FamilyParam{"PowerOfTwo", FftKernelMode::Scalar},
                      FamilyParam{"PowerOfTwo", FftKernelMode::Simd},
                      FamilyParam{"MixedRadix", FftKernelMode::Scalar},
                      FamilyParam{"MixedRadix", FftKernelMode::Simd},
                      FamilyParam{"BluesteinPrime", FftKernelMode::Scalar},
                      FamilyParam{"BluesteinPrime", FftKernelMode::Simd}),
    paramName);

/**
 * Lengths that reach every SIMD schedule shape: each leaf codelet
 * (1, 2, 4, 8 points), leaves under radix-3 and radix-4 combines, a
 * generic odd radix with no power-of-two part (105 = 7 * 5 * 3), and a
 * Bluestein prime.
 */
const std::vector<std::size_t> kInversePathLengths{
    1, 2, 3, 4, 8, 16, 24, 32, 40, 48, 96, 192, 105, 37};

class FftInverseTest : public ::testing::TestWithParam<FftKernelMode>
{
  protected:
    void SetUp() override { guard_.emplace(GetParam()); }

  private:
    std::optional<FftKernelModeGuard> guard_;
};

TEST_P(FftInverseTest, InverseMatchesScaledOracle)
{
    for (std::size_t n : kInversePathLengths) {
        FftPlan plan(n);
        auto x = randomSignal(n, 7000 + n);
        auto fast = x;
        plan.inverse(fast.data());
        auto slow = oracle::dft1d(x, +1);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(std::abs(fast[i] - slow[i] / static_cast<Real>(n)),
                        0.0, 1e-12 * n)
                << "n=" << n << " i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelModes, FftInverseTest,
    ::testing::Values(FftKernelMode::Scalar, FftKernelMode::Simd),
    [](const ::testing::TestParamInfo<FftKernelMode> &info) {
        return std::string(info.param == FftKernelMode::Simd ? "Simd"
                                                             : "Scalar");
    });

/**
 * Cross-kernel contract: Scalar and Simd kernels agree within
 * kFftKernelTolerance * n for unit-magnitude inputs (fft/kernels.hpp).
 * Only meaningful when both kernel sets are compiled in.
 */
class ScalarVsSimd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!simdKernelsCompiled())
            GTEST_SKIP() << "SIMD kernels not compiled (LIGHTRIDGE_SIMD=OFF)";
    }
};

TEST_F(ScalarVsSimd, OneDTransformsWithinPinnedTolerance)
{
    std::vector<std::size_t> all;
    for (auto sizes : {powerOfTwoSizes(), mixedRadixSizes(),
                       bluesteinPrimeSizes()})
        all.insert(all.end(), sizes.begin(), sizes.end());
    for (std::size_t n : all) {
        FftPlan plan(n);
        auto x = randomSignal(n, 6000 + n);
        auto scalar = x;
        auto simd = x;
        {
            FftKernelModeGuard guard(FftKernelMode::Scalar);
            plan.forward(scalar.data());
        }
        {
            FftKernelModeGuard guard(FftKernelMode::Simd);
            plan.forward(simd.data());
        }
        Real worst = 0;
        for (std::size_t i = 0; i < n; ++i)
            worst = std::max(worst, std::abs(scalar[i] - simd[i]));
        EXPECT_LE(worst, kFftKernelTolerance * static_cast<Real>(n))
            << "n=" << n;
    }
}

TEST_F(ScalarVsSimd, OneDInverseWithinPinnedTolerance)
{
    for (std::size_t n : kInversePathLengths) {
        FftPlan plan(n);
        auto x = randomSignal(n, 8000 + n);
        auto scalar = x;
        auto simd = x;
        {
            FftKernelModeGuard guard(FftKernelMode::Scalar);
            plan.inverse(scalar.data());
        }
        {
            FftKernelModeGuard guard(FftKernelMode::Simd);
            plan.inverse(simd.data());
        }
        Real worst = 0;
        for (std::size_t i = 0; i < n; ++i)
            worst = std::max(worst, std::abs(scalar[i] - simd[i]));
        EXPECT_LE(worst, kFftKernelTolerance * static_cast<Real>(n))
            << "n=" << n;
    }
}

TEST_F(ScalarVsSimd, HadamardWithinPinnedTolerance)
{
    const std::size_t n = 96;
    Rng rng(42);
    Field a(n, n), b(n, n);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        b[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    Field scalar = a, simd = a;
    {
        FftKernelModeGuard guard(FftKernelMode::Scalar);
        scalar.hadamard(b);
    }
    {
        FftKernelModeGuard guard(FftKernelMode::Simd);
        simd.hadamard(b);
    }
    // The element-wise product has no reassociated reduction, so the two
    // kernels agree far below the transform-level bound; hold them to it.
    EXPECT_LE(maxAbsDiff(scalar, simd), kFftKernelTolerance);

    Field scalar_conj = a, simd_conj = a;
    {
        FftKernelModeGuard guard(FftKernelMode::Scalar);
        scalar_conj.hadamardConj(b);
    }
    {
        FftKernelModeGuard guard(FftKernelMode::Simd);
        simd_conj.hadamardConj(b);
    }
    EXPECT_LE(maxAbsDiff(scalar_conj, simd_conj), kFftKernelTolerance);
}

/** 96 = 2^5 * 3 runs the radix-3-outermost plan on rows and columns. */
TEST_F(ScalarVsSimd, Fft2d96ForwardInverseWithinPinnedTolerance)
{
    const std::size_t n = 96;
    const Real bound = kFftKernelTolerance * static_cast<Real>(n);
    Fft2d fft(n, n);
    Field scalar = randomUnitField(n, 96);
    Field simd = scalar;
    {
        FftKernelModeGuard guard(FftKernelMode::Scalar);
        fft.forward(&scalar);
    }
    {
        FftKernelModeGuard guard(FftKernelMode::Simd);
        fft.forward(&simd);
    }
    EXPECT_LE(maxAbsDiff(scalar, simd), bound) << "forward";

    // Inverse of the same (scalar) spectrum under each kernel set.
    Field simd_back = scalar;
    {
        FftKernelModeGuard guard(FftKernelMode::Scalar);
        fft.inverse(&scalar);
    }
    {
        FftKernelModeGuard guard(FftKernelMode::Simd);
        fft.inverse(&simd_back);
    }
    EXPECT_LE(maxAbsDiff(scalar, simd_back), bound) << "inverse";
}

/**
 * A 96^2 hop through the propagator's in-place paths: pad 1 transforms at
 * 96 (2^5 * 3), pad 2 at 192 (2^6 * 3).
 */
TEST_F(ScalarVsSimd, Propagator96IntoPathsWithinPinnedTolerance)
{
    const std::size_t n = 96;
    const Real bound = kFftKernelTolerance * static_cast<Real>(n);
    const Field input = randomUnitField(n, 196);
    PropagationWorkspace workspace;
    for (std::size_t pad : {std::size_t(1), std::size_t(2)}) {
        PropagatorConfig config;
        config.grid = Grid{n, 36e-6};
        config.distance = 0.05;
        config.pad_factor = pad;
        Propagator prop(config);

        Field scalar_fwd, simd_fwd, scalar_adj, simd_adj;
        {
            FftKernelModeGuard guard(FftKernelMode::Scalar);
            prop.forwardInto(input, scalar_fwd, workspace);
            prop.adjointInto(input, scalar_adj, workspace);
        }
        {
            FftKernelModeGuard guard(FftKernelMode::Simd);
            prop.forwardInto(input, simd_fwd, workspace);
            prop.adjointInto(input, simd_adj, workspace);
        }
        EXPECT_LE(maxAbsDiff(scalar_fwd, simd_fwd), bound) << "pad=" << pad;
        EXPECT_LE(maxAbsDiff(scalar_adj, simd_adj), bound) << "pad=" << pad;
    }
}

/** Row-parallel FFT2 must be bitwise-identical to the serial split. */
TEST(Fft2dRowParallel, BitwiseIdenticalToSerialAcrossPools)
{
    const std::size_t n = 128; // >= kFft2dParallelMinElements when squared
    ASSERT_GE(n * n, kFft2dParallelMinElements);
    Fft2d fft(n, n);
    Rng rng(7);
    Field base(n, n);
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    ThreadPool serial(1); // coerced to inline execution
    Field reference = base;
    fft.forward(&reference, &serial);

    for (std::size_t workers : {std::size_t(2), std::size_t(4)}) {
        ThreadPool pool(workers);
        Field parallel = base;
        fft.forward(&parallel, &pool);
        ASSERT_EQ(parallel.size(), reference.size());
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            ASSERT_EQ(parallel[i].real(), reference[i].real())
                << "workers=" << workers << " i=" << i;
            ASSERT_EQ(parallel[i].imag(), reference[i].imag())
                << "workers=" << workers << " i=" << i;
        }
    }

    // Round trip through the parallel path recovers the input.
    ThreadPool pool(4);
    Field round = base;
    fft.forward(&round, &pool);
    fft.inverse(&round, &pool);
    EXPECT_LT(maxAbsDiff(round, base), 1e-10);
}

/** The 2-D engine agrees with the 2-D oracle under both kernel sets. */
TEST(Fft2dKernels, MatchesOracleUnderBothModes)
{
    const std::size_t rows = 12, cols = 10;
    Rng rng(9);
    Field base(rows, cols);
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    Field ref = oracle::dft2d(base, -1);

    Fft2d fft(rows, cols);
    for (FftKernelMode mode : {FftKernelMode::Scalar, FftKernelMode::Simd}) {
        FftKernelModeGuard guard(mode);
        Field f = base;
        fft.forward(&f);
        EXPECT_LT(maxAbsDiff(f, ref), 1e-8)
            << (mode == FftKernelMode::Simd ? "simd" : "scalar");
    }
}

} // namespace
} // namespace lightridge
