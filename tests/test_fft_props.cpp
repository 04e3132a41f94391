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
#include "fft/lanes.hpp"
#include "optics/perturbation.hpp"
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

Field
randomGrid(std::size_t rows, std::size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Field f(rows, cols);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return f;
}

/** Unit-modulus natural-order kernel (what a transfer function is). */
Field
randomPhasors(std::size_t rows, std::size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Field f(rows, cols);
    for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = std::polar(Real(1), rng.uniform(0, kTwoPi));
    return f;
}

bool
bitwiseSame(const Field &a, const Field &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].real() != b[i].real() || a[i].imag() != b[i].imag())
            return false;
    return true;
}

/** A shift realization with random unit phasors at the plan's size. */
HopPerturbation
randomShift(std::size_t rows, std::size_t cols, uint64_t seed)
{
    Rng rng(seed);
    HopPerturbation hop;
    hop.has_shift = true;
    for (std::size_t i = 0; i < rows; ++i)
        hop.ramp_row.push_back(std::polar(Real(1), rng.uniform(0, kTwoPi)));
    for (std::size_t i = 0; i < cols; ++i)
        hop.ramp_col.push_back(std::polar(Real(1), rng.uniform(0, kTwoPi)));
    return hop;
}

/**
 * The hop convolveInto fuses, run step by step in natural order:
 * forward, kernel (and ramp) product, inverse, on the zero-extended
 * input, cropped back to its shape.
 */
Field
naturalOrderHop(const Fft2d &fft, const Field &in, const Field &kernel,
                bool conjugate, const HopPerturbation *hop)
{
    Field work(fft.rows(), fft.cols());
    for (std::size_t r = 0; r < in.rows(); ++r)
        for (std::size_t c = 0; c < in.cols(); ++c)
            work(r, c) = in(r, c);
    fft.forward(&work);
    if (conjugate)
        work.hadamardConj(kernel);
    else
        work.hadamard(kernel);
    if (hop && hop->has_shift)
        for (std::size_t r = 0; r < work.rows(); ++r)
            for (std::size_t c = 0; c < work.cols(); ++c) {
                Complex g = hop->ramp_row[r] * hop->ramp_col[c];
                work(r, c) *= conjugate ? std::conj(g) : g;
            }
    fft.inverse(&work);
    Field out(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r)
        for (std::size_t c = 0; c < in.cols(); ++c)
            out(r, c) = work(r, c);
    return out;
}

/**
 * Row-parallel FFT2 must be bitwise-identical to the serial split: the
 * natural-order transforms and the fused hop, same-size and zero-padded,
 * with a conjugate kernel and a shift ramp.
 */
TEST(Fft2dRowParallel, BitwiseIdenticalToSerialAcrossPools)
{
    const std::size_t n = 128; // >= kFft2dParallelMinElements when squared
    ASSERT_GE(n * n, kFft2dParallelMinElements);
    Fft2d fft(n, n);
    Field base = randomGrid(n, n, 7);
    Field spectrum_kernel;
    transposeSpectrum(randomPhasors(n, n, 8), spectrum_kernel);
    const HopPerturbation shift = randomShift(n, n, 9);
    const Field padded_in = randomGrid(100, 100, 10);
    PropagationWorkspace workspace;

    ThreadPool serial(1); // coerced to inline execution
    Field reference = base;
    fft.forward(&reference, &serial);
    Field hop_reference, hop_conj_reference, hop_padded_reference;
    fft.convolveInto(base, hop_reference, spectrum_kernel, false, nullptr,
                     workspace, &serial);
    fft.convolveInto(base, hop_conj_reference, spectrum_kernel, true,
                     &shift, workspace, &serial);
    fft.convolveInto(padded_in, hop_padded_reference, spectrum_kernel,
                     false, &shift, workspace, &serial);

    for (std::size_t workers : {std::size_t(2), std::size_t(4)}) {
        ThreadPool pool(workers);
        Field parallel = base;
        fft.forward(&parallel, &pool);
        EXPECT_TRUE(bitwiseSame(parallel, reference))
            << "forward, workers=" << workers;

        Field hop, hop_conj, hop_padded;
        fft.convolveInto(base, hop, spectrum_kernel, false, nullptr,
                         workspace, &pool);
        fft.convolveInto(base, hop_conj, spectrum_kernel, true, &shift,
                         workspace, &pool);
        fft.convolveInto(padded_in, hop_padded, spectrum_kernel, false,
                         &shift, workspace, &pool);
        EXPECT_TRUE(bitwiseSame(hop, hop_reference))
            << "convolveInto, workers=" << workers;
        EXPECT_TRUE(bitwiseSame(hop_conj, hop_conj_reference))
            << "conjugate convolveInto with ramp, workers=" << workers;
        EXPECT_TRUE(bitwiseSame(hop_padded, hop_padded_reference))
            << "padded convolveInto, workers=" << workers;
    }

    // Round trip through the parallel path recovers the input.
    ThreadPool pool(4);
    Field round = base;
    fft.forward(&round, &pool);
    fft.inverse(&round, &pool);
    EXPECT_LT(maxAbsDiff(round, base), 1e-10);
}

/**
 * Grids covering every 2-D engine shape: square smooth lengths through
 * the leaf 8/4 and radix-3/4 plans (96, 64, 32), a generic-radix length
 * (500 = 5^3 * 4), column counts below and off a multiple of the lane
 * block (24 x 36, 10 x 14), and a Bluestein dimension (12 x 37), which
 * takes the per-line fallback.
 */
struct GridShape
{
    std::size_t rows, cols;
};
const std::vector<GridShape> kLaneShapes{{96, 96}, {64, 64}, {32, 32},
                                         {500, 500}, {24, 36}, {10, 14},
                                         {12, 37}};

/**
 * The 2-D DFT as direct 1-D DFTs along the rows, then the columns, with
 * the exp(sign * j*2*pi*t/n) factors tabulated once per length: the same
 * sum as oracle::dft2d, at O(n^3), for grids too large for the O(n^4)
 * oracle (500^2).
 */
Field
separableDft2d(const Field &input, int sign)
{
    auto line = [sign](std::vector<Complex> &x) {
        const std::size_t n = x.size();
        std::vector<Complex> table(n), y(n, Complex{0, 0});
        for (std::size_t t = 0; t < n; ++t)
            table[t] = std::polar(Real(1), sign * kTwoPi *
                                               static_cast<Real>(t) /
                                               static_cast<Real>(n));
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t t = 0; t < n; ++t)
                y[k] += x[t] * table[(k * t) % n];
        x = std::move(y);
    };
    Field out = input;
    std::vector<Complex> buf(out.cols());
    for (std::size_t r = 0; r < out.rows(); ++r) {
        for (std::size_t c = 0; c < out.cols(); ++c)
            buf[c] = out(r, c);
        line(buf);
        for (std::size_t c = 0; c < out.cols(); ++c)
            out(r, c) = buf[c];
    }
    buf.resize(out.rows());
    for (std::size_t c = 0; c < out.cols(); ++c) {
        for (std::size_t r = 0; r < out.rows(); ++r)
            buf[r] = out(r, c);
        line(buf);
        for (std::size_t r = 0; r < out.rows(); ++r)
            out(r, c) = buf[r];
    }
    return out;
}

TEST(Fft2dLanes, ForwardAndInverseMatchOracleUnderBothModes)
{
    for (const GridShape &shape : kLaneShapes) {
        // The O(n^4) oracle up to 96^2; 500^2 against the separable one.
        const bool direct = shape.rows * shape.cols <= 96 * 96;
        auto oracle = direct ? oracle::dft2d : separableDft2d;
        const Field base = randomGrid(shape.rows, shape.cols, 31);
        const Field fwd_ref = oracle(base, -1);
        Field inv_ref = oracle(base, +1);
        const Real cells = static_cast<Real>(shape.rows * shape.cols);
        for (std::size_t i = 0; i < inv_ref.size(); ++i)
            inv_ref[i] /= cells;
        Fft2d fft(shape.rows, shape.cols);
        for (FftKernelMode mode :
             {FftKernelMode::Scalar, FftKernelMode::Simd}) {
            FftKernelModeGuard guard(mode);
            Field fwd = base, inv = base;
            fft.forward(&fwd);
            fft.inverse(&inv);
            EXPECT_LT(maxAbsDiff(fwd, fwd_ref), 1e-12 * cells)
                << shape.rows << "x" << shape.cols << " forward";
            EXPECT_LT(maxAbsDiff(inv, inv_ref), 1e-12)
                << shape.rows << "x" << shape.cols << " inverse";
        }
    }
}

TEST_F(ScalarVsSimd, Fft2dLaneShapesWithinPinnedTolerance)
{
    for (const GridShape &shape : kLaneShapes) {
        const Real bound = kFftKernelTolerance *
                           static_cast<Real>(std::max(shape.rows, shape.cols));
        const Field base = randomGrid(shape.rows, shape.cols, 41);
        Fft2d fft(shape.rows, shape.cols);
        for (bool inverse : {false, true}) {
            Field scalar = base, simd = base;
            {
                FftKernelModeGuard guard(FftKernelMode::Scalar);
                inverse ? fft.inverse(&scalar) : fft.forward(&scalar);
            }
            {
                FftKernelModeGuard guard(FftKernelMode::Simd);
                inverse ? fft.inverse(&simd) : fft.forward(&simd);
            }
            EXPECT_LE(maxAbsDiff(scalar, simd), bound)
                << shape.rows << "x" << shape.cols
                << (inverse ? " inverse" : " forward");
        }
    }
}

TEST(Fft2dLanes, ColumnCountNotMultipleOfLaneBlock)
{
    const std::size_t rows = 12, cols = 2 * lanes::kLaneBlock + 8;
    ASSERT_NE(cols % lanes::kLaneBlock, 0u);
    const Field base = randomGrid(rows, cols, 51);
    const Field ref = oracle::dft2d(base, -1);
    Fft2d fft(rows, cols);
    FftKernelModeGuard guard(FftKernelMode::Simd);
    Field fwd = base;
    fft.forward(&fwd);
    EXPECT_LT(maxAbsDiff(fwd, ref), 1e-9);
    fft.inverse(&fwd);
    EXPECT_LT(maxAbsDiff(fwd, base), 1e-12);
}

/**
 * The fused hop against forward -> hadamard -> inverse in natural order:
 * plain and conjugate kernels, a shift ramp, same-size and zero-padded
 * inputs, under both kernel sets.
 */
TEST(Fft2dLanes, ConvolveIntoMatchesNaturalOrderHop)
{
    struct Case
    {
        GridShape plan, in;
    };
    for (const Case &c : {Case{{96, 96}, {96, 96}}, Case{{64, 64}, {40, 40}},
                          Case{{24, 36}, {24, 36}}, Case{{12, 37}, {9, 30}}}) {
        Fft2d fft(c.plan.rows, c.plan.cols);
        const Field in = randomGrid(c.in.rows, c.in.cols, 61);
        const Field kernel = randomPhasors(c.plan.rows, c.plan.cols, 62);
        Field spectrum_kernel;
        transposeSpectrum(kernel, spectrum_kernel);
        const HopPerturbation shift =
            randomShift(c.plan.rows, c.plan.cols, 63);
        PropagationWorkspace workspace;
        for (FftKernelMode mode :
             {FftKernelMode::Scalar, FftKernelMode::Simd}) {
            FftKernelModeGuard guard(mode);
            for (bool conjugate : {false, true})
                for (const HopPerturbation *hop :
                     {static_cast<const HopPerturbation *>(nullptr),
                      &shift}) {
                    Field fused;
                    fft.convolveInto(in, fused, spectrum_kernel, conjugate,
                                     hop, workspace);
                    const Field ref =
                        naturalOrderHop(fft, in, kernel, conjugate, hop);
                    EXPECT_LT(maxAbsDiff(fused, ref),
                              kFftKernelTolerance *
                                  static_cast<Real>(c.plan.cols))
                        << c.plan.rows << "x" << c.plan.cols << " in "
                        << c.in.rows << "x" << c.in.cols
                        << " conj=" << conjugate
                        << " ramp=" << (hop != nullptr)
                        << (mode == FftKernelMode::Simd ? " simd" : " scalar");
                }
        }
    }
}

/**
 * The baseline and AVX2 builds of the lane kernels are one source without
 * FMA, so they agree bitwise: forward, inverse, and the fused hop (with a
 * conjugate kernel, a shift ramp and a zero-padded input), on full and
 * partial lane blocks.
 */
TEST(Fft2dLanes, BaselineAndAvx2BuildsAgreeBitwise)
{
    if (!simdKernelsCompiled() || !laneIsaSupported(LaneIsa::Avx2))
        GTEST_SKIP() << "no AVX2 build of the lane kernels on this host";
    FftKernelModeGuard mode(FftKernelMode::Simd);
    for (const GridShape &shape : {GridShape{96, 96}, GridShape{24, 36},
                                   GridShape{500, 500}}) {
        Fft2d fft(shape.rows, shape.cols);
        const Field base = randomGrid(shape.rows, shape.cols, 71);
        Field spectrum_kernel;
        transposeSpectrum(randomPhasors(shape.rows, shape.cols, 72),
                          spectrum_kernel);
        const HopPerturbation shift = randomShift(shape.rows, shape.cols, 73);
        const Field padded_in =
            randomGrid(shape.rows - 4, shape.cols - 3, 74);
        PropagationWorkspace workspace;
        auto run = [&](LaneIsa isa) {
            LaneIsaGuard guard(isa);
            std::vector<Field> out(5, base);
            fft.forward(&out[0]);
            fft.inverse(&out[1]);
            fft.convolveInto(base, out[2], spectrum_kernel, false, nullptr,
                             workspace);
            fft.convolveInto(base, out[3], spectrum_kernel, true, &shift,
                             workspace);
            fft.convolveInto(padded_in, out[4], spectrum_kernel, false,
                             &shift, workspace);
            return out;
        };
        const std::vector<Field> baseline = run(LaneIsa::Baseline);
        const std::vector<Field> avx2 = run(LaneIsa::Avx2);
        for (std::size_t i = 0; i < baseline.size(); ++i)
            EXPECT_TRUE(bitwiseSame(baseline[i], avx2[i]))
                << shape.rows << "x" << shape.cols << " case " << i;
    }
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
