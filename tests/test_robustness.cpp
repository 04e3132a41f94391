/**
 * @file
 * Robustness subsystem: finite-difference gradients through perturbed
 * propagation (lateral / axial / phase noise, both FFT kernel sets),
 * the bitwise no-op pin when no spec is bound, per-seed sampler
 * determinism across worker counts, zero-Field-allocation perturbed
 * train steps, strict spec parsing, and the robustness sweep engine.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "api/robustness.hpp"
#include "core/optimizer.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "fft/kernels.hpp"
#include "optics/propagator.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

SystemSpec
tinySpec(std::size_t n = 12)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.01;
    return spec;
}

RealMap
randomImage(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    RealMap img(n, n);
    for (std::size_t i = 0; i < img.size(); ++i)
        img[i] = rng.uniform(0, 1);
    return img;
}

bool
bitwiseEqual(const std::vector<Real> &a, const std::vector<Real> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0;
}

bool
bitwiseEqual(const Field &a, const Field &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

/**
 * Compare the analytic gradient of `loss_fn` w.r.t. selected entries of a
 * parameter vector against central finite differences.
 */
void
checkParamGradient(std::vector<Real> *value, const std::vector<Real> &grad,
                   const std::function<Real()> &loss_fn,
                   std::initializer_list<std::size_t> probe_indices,
                   Real eps = 1e-6, Real tol = 2e-4)
{
    for (std::size_t idx : probe_indices) {
        ASSERT_LT(idx, value->size());
        Real saved = (*value)[idx];
        (*value)[idx] = saved + eps;
        Real plus = loss_fn();
        (*value)[idx] = saved - eps;
        Real minus = loss_fn();
        (*value)[idx] = saved;
        Real numeric = (plus - minus) / (2 * eps);
        Real scale = std::max({std::abs(numeric), std::abs(grad[idx]),
                               Real(1e-3)});
        EXPECT_NEAR(grad[idx], numeric, tol * scale) << "param index " << idx;
    }
}

/** Build, run forward+loss+backward once, return the loss closure. */
struct ModelHarness
{
    DonnModel model;
    RealMap image;
    int label;

    Real
    loss()
    {
        Field input = model.encode(image);
        std::vector<Real> logits = model.forwardLogits(input, false);
        return softmaxMseLoss(logits, label).value;
    }

    void
    backwardOnce()
    {
        model.zeroGrad();
        Field input = model.encode(image);
        std::vector<Real> logits = model.forwardLogits(input, true);
        LossResult lr = softmaxMseLoss(logits, label);
        model.backwardFromLogits(lr.dlogits);
    }
};

/**
 * Hand-build one fixed realization over a model: the same (dx, dy, dz)
 * on every free-space hop plus an optional per-layer phase screen. The
 * finite-difference probes hold it fixed while the phases vary, exactly
 * like one vaccinated training batch.
 */
PerturbationRealization
makeRealization(DonnModel &model, Real dx, Real dy, Real dz,
                Real phase_sigma, uint64_t noise_seed)
{
    PerturbationRealization r;
    const std::vector<const Propagator *> hops = modelLayerHops(model);
    r.layers.resize(hops.size());
    Rng rng(noise_seed);
    for (std::size_t i = 0; i < hops.size(); ++i) {
        if (hops[i] == nullptr)
            continue;
        fillHopPerturbation(*hops[i], dx, dy, dz, r.layers[i].hop);
        if (phase_sigma > 0.0) {
            const std::size_t n = hops[i]->config().grid.n;
            r.layers[i].has_noise = true;
            r.layers[i].noise = Field(n, n);
            r.layers[i].noise_conj = Field(n, n);
            for (std::size_t u = 0; u < r.layers[i].noise.size(); ++u) {
                const Real eps = rng.normal(0.0, phase_sigma);
                r.layers[i].noise[u] = std::polar<Real>(1.0, eps);
                r.layers[i].noise_conj[u] = std::polar<Real>(1.0, -eps);
            }
        }
    }
    fillHopPerturbation(*model.hopPropagator(), dx, dy, dz, r.final_hop);
    return r;
}

// --------------------------------------------------------------------------
// Finite-difference gradients through perturbed propagation
// --------------------------------------------------------------------------

/**
 * Vaccinated training relies on the perturbed forward having an exact
 * adjoint (conjugate ramp / conjugate kernel / conjugate phasor); any
 * mismatch shows up here as a gradient error far above FD noise. Checked
 * under both kernel sets the FFT dispatch layer can select.
 */
class PerturbedGradient : public ::testing::TestWithParam<FftKernelMode>
{
  protected:
    ModelHarness
    makeHarness()
    {
        Rng rng(42);
        ModelHarness h{ModelBuilder(tinySpec(), Laser{})
                           .diffractiveLayers(2, 1.0, &rng)
                           .detectorGrid(4, 2)
                           .build(),
                       randomImage(12, 1), 2};
        h.model.detector().setAmpFactor(25.0);
        return h;
    }

    void
    checkAll(ModelHarness &h)
    {
        h.backwardOnce();
        auto params = h.model.params();
        ASSERT_EQ(params.size(), 2u);
        for (auto &p : params)
            checkParamGradient(p.value, *p.grad, [&] { return h.loss(); },
                               {0, 5, 17, 50, 143});
    }
};

TEST_P(PerturbedGradient, LateralShift)
{
    FftKernelModeGuard guard(GetParam());
    ModelHarness h = makeHarness();
    PerturbationRealization r =
        makeRealization(h.model, 0.4 * 36e-6, -0.25 * 36e-6, 0.0, 0.0, 0);
    h.model.setPerturbation(&r);
    checkAll(h);
    h.model.setPerturbation(nullptr);
}

TEST_P(PerturbedGradient, AxialJitter)
{
    FftKernelModeGuard guard(GetParam());
    ModelHarness h = makeHarness();
    PerturbationRealization r =
        makeRealization(h.model, 0.0, 0.0, 0.002, 0.0, 0);
    h.model.setPerturbation(&r);
    checkAll(h);
    h.model.setPerturbation(nullptr);
}

TEST_P(PerturbedGradient, PhaseNoise)
{
    FftKernelModeGuard guard(GetParam());
    ModelHarness h = makeHarness();
    PerturbationRealization r =
        makeRealization(h.model, 0.0, 0.0, 0.0, 0.3, 77);
    h.model.setPerturbation(&r);
    checkAll(h);
    h.model.setPerturbation(nullptr);
}

TEST_P(PerturbedGradient, AllAxesFresnelPadded)
{
    FftKernelModeGuard guard(GetParam());
    SystemSpec spec = tinySpec();
    spec.approx = Diffraction::Fresnel;
    spec.pad_factor = 2;
    Rng rng(9);
    ModelHarness h{ModelBuilder(spec, Laser{})
                       .diffractiveLayers(2, 1.0, &rng)
                       .detectorGrid(4, 2)
                       .build(),
                   randomImage(12, 3), 1};
    h.model.detector().setAmpFactor(40.0);
    PerturbationRealization r = makeRealization(
        h.model, -0.5 * 36e-6, 0.3 * 36e-6, -0.0015, 0.2, 13);
    h.model.setPerturbation(&r);
    h.backwardOnce();
    auto params = h.model.params();
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, [&] { return h.loss(); },
                           {11, 77});
    h.model.setPerturbation(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    BothKernelSets, PerturbedGradient,
    ::testing::Values(FftKernelMode::Scalar, FftKernelMode::Simd),
    [](const ::testing::TestParamInfo<FftKernelMode> &info) {
        return info.param == FftKernelMode::Simd ? std::string("Simd")
                                                 : std::string("Scalar");
    });

// --------------------------------------------------------------------------
// Perturbed forward/inference consistency
// --------------------------------------------------------------------------

TEST(Perturbation, TrainingAndInferenceForwardAgree)
{
    Rng rng(4);
    DonnModel model = ModelBuilder(tinySpec(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(4, 2)
                          .build();
    PerturbationRealization r =
        makeRealization(model, 0.3 * 36e-6, 0.0, 0.001, 0.25, 3);
    model.setPerturbation(&r);
    Field input = model.encode(randomImage(12, 5));
    Field train_out = model.forwardField(input, true);
    Field infer_out = model.forwardField(input, false);
    model.setPerturbation(nullptr);
    EXPECT_LT(maxAbsDiff(train_out, infer_out), 1e-12);
}

TEST(Perturbation, LateralShiftTranslatesTheField)
{
    // A one-pixel frequency-domain ramp must reproduce an integer roll of
    // the unperturbed output (cyclic in the same-size path).
    SystemSpec spec = tinySpec(16);
    Laser laser;
    DonnModel model(spec, laser);
    const Propagator &prop = *model.hopPropagator();
    Field input(16, 16, Complex{0, 0});
    input[5 * 16 + 7] = Complex{1, 0}; // point source off-centre

    PropagationWorkspace workspace;
    Field nominal;
    prop.forwardInto(input, nominal, workspace);

    HopPerturbation hop;
    fillHopPerturbation(prop, spec.pixel, 0.0, 0.0, hop); // dx = +1 px
    Field shifted;
    prop.forwardInto(input, shifted, workspace, &hop);

    Real max_err = 0;
    for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 16; ++c) {
            // dx shifts along the fast (column) axis by +1 cell.
            const std::size_t src_c = (c + 16 - 1) % 16;
            max_err = std::max(max_err,
                               std::abs(shifted[r * 16 + c] -
                                        nominal[r * 16 + src_c]));
        }
    EXPECT_LT(max_err, 1e-10);
}

TEST(Perturbation, AxialJitterMatchesRebuiltPropagator)
{
    // The LRU-acquired perturbed kernel must agree with a propagator
    // built outright at distance + dz.
    SystemSpec spec = tinySpec(16);
    Laser laser;
    DonnModel model(spec, laser);
    const Propagator &prop = *model.hopPropagator();
    Field input(16, 16);
    Rng rng(6);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    const Real dz = 0.0025;
    HopPerturbation hop;
    fillHopPerturbation(prop, 0.0, 0.0, dz, hop);
    PropagationWorkspace workspace;
    Field perturbed;
    prop.forwardInto(input, perturbed, workspace, &hop);

    PropagatorConfig pc = prop.config();
    pc.distance += dz;
    Propagator rebuilt(pc);
    Field reference;
    rebuilt.forwardInto(input, reference, workspace);
    EXPECT_TRUE(bitwiseEqual(perturbed, reference));
}

// --------------------------------------------------------------------------
// Bitwise no-op pin: no spec / inactive spec == today's training
// --------------------------------------------------------------------------

std::vector<std::vector<Real>>
trainTinyAndSnapshot(const PerturbationSpec *spec)
{
    SystemSpec sys = tinySpec(16);
    Rng rng(1);
    DonnModel model = ModelBuilder(sys, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset train = makeSynthDigits(12, 1);
    ClassificationTask task(model, train);
    if (spec != nullptr)
        task.setPerturbationSpec(*spec);
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batch = 4;
    cfg.lr = 0.05;
    cfg.seed = 5;
    cfg.workers = 1;
    Session(task, cfg).fit();
    std::vector<std::vector<Real>> out;
    for (const ParamView &p : model.params())
        out.push_back(*p.value);
    return out;
}

TEST(Perturbation, DisabledSpecIsBitwiseNoOp)
{
    auto baseline = trainTinyAndSnapshot(nullptr);

    PerturbationSpec inactive; // enabled but no axis active
    auto with_inactive = trainTinyAndSnapshot(&inactive);

    PerturbationSpec switched_off; // axes configured, master switch off
    switched_off.enabled = false;
    switched_off.lateral.kind = ErrorDist::Kind::Uniform;
    switched_off.lateral.scale = 36e-6;
    auto with_switched_off = trainTinyAndSnapshot(&switched_off);

    ASSERT_EQ(baseline.size(), with_inactive.size());
    ASSERT_EQ(baseline.size(), with_switched_off.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(baseline[i], with_inactive[i]))
            << "param block " << i;
        EXPECT_TRUE(bitwiseEqual(baseline[i], with_switched_off[i]))
            << "param block " << i;
    }
}

// --------------------------------------------------------------------------
// Sampler determinism
// --------------------------------------------------------------------------

PerturbationSpec
fullSpec()
{
    PerturbationSpec spec;
    spec.lateral.kind = ErrorDist::Kind::Uniform;
    spec.lateral.scale = 36e-6;
    spec.axial.kind = ErrorDist::Kind::Gaussian;
    spec.axial.scale = 0.001;
    spec.axial_levels = 5;
    spec.phase_sigma = 0.2;
    return spec;
}

TEST(Perturbation, SamplerIsAPureFunctionOfTheSeed)
{
    Rng rng(2);
    DonnModel model = ModelBuilder(tinySpec(), Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(4, 2)
                          .build();
    PerturbationSampler sampler(fullSpec(), modelLayerHops(model),
                                model.hopPropagator().get());

    PerturbationRealization a, b, c;
    sampler.sample(1234, a);
    sampler.sample(1234, b);
    sampler.sample(99, c);

    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].hop.dx, b.layers[i].hop.dx);
        EXPECT_EQ(a.layers[i].hop.dy, b.layers[i].hop.dy);
        EXPECT_EQ(a.layers[i].hop.dz, b.layers[i].hop.dz);
        ASSERT_TRUE(a.layers[i].has_noise && b.layers[i].has_noise);
        EXPECT_TRUE(bitwiseEqual(a.layers[i].noise, b.layers[i].noise));
    }
    EXPECT_EQ(a.final_hop.dx, b.final_hop.dx);
    EXPECT_EQ(a.final_hop.dz, b.final_hop.dz);

    // A different seed must actually move the draw.
    EXPECT_NE(a.layers[0].hop.dx, c.layers[0].hop.dx);

    // dz lands exactly on a quantization level.
    const std::vector<Real> levels = fullSpec().axialLevels();
    for (const LayerPerturbation &layer : a.layers) {
        // fillHopPerturbation may clamp, but tiny dz never trips it here.
        bool on_level = false;
        for (Real level : levels)
            on_level = on_level ||
                       std::abs(layer.hop.dz - level) < 1e-15;
        EXPECT_TRUE(on_level) << "dz " << layer.hop.dz;
    }
}

TEST(Perturbation, DrawSeedsAreWorkerCountIndependent)
{
    // The per-batch draw seed depends only on (train seed, epoch, batch):
    // the error sequence is identical at any worker count by construction.
    const uint64_t s1 = Session::perturbationDrawSeed(7, 0, 0);
    const uint64_t s2 = Session::perturbationDrawSeed(7, 0, 1);
    const uint64_t s3 = Session::perturbationDrawSeed(7, 1, 0);
    EXPECT_NE(s1, s2);
    EXPECT_NE(s1, s3);
    EXPECT_NE(s2, s3);
    EXPECT_EQ(s1, Session::perturbationDrawSeed(7, 0, 0));
}

/** ClassificationTask that records every per-batch draw it receives. */
class RecordingTask : public ClassificationTask
{
  public:
    using ClassificationTask::ClassificationTask;

    void
    samplePerturbation(uint64_t draw_seed) override
    {
        ClassificationTask::samplePerturbation(draw_seed);
        seeds.push_back(draw_seed);
        const PerturbationRealization *r = currentPerturbation();
        ASSERT_NE(r, nullptr);
        ASSERT_FALSE(r->layers.empty());
        drawn_dx.push_back(r->layers[0].hop.dx);
    }

    std::vector<uint64_t> seeds;
    std::vector<Real> drawn_dx;
};

std::pair<std::vector<uint64_t>, std::vector<Real>>
recordDraws(std::size_t workers)
{
    SystemSpec sys = tinySpec(16);
    Rng rng(1);
    DonnModel model = ModelBuilder(sys, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset train = makeSynthDigits(12, 1);
    RecordingTask task(model, train);
    PerturbationSpec spec;
    spec.lateral.kind = ErrorDist::Kind::Uniform;
    spec.lateral.scale = 36e-6;
    task.setPerturbationSpec(spec);
    TrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch = 4;
    cfg.lr = 0.05;
    cfg.seed = 5;
    cfg.workers = workers;
    Session(task, cfg).fit();
    return {task.seeds, task.drawn_dx};
}

TEST(Perturbation, DrawSequenceIdenticalAcrossWorkerCounts)
{
    auto serial = recordDraws(1);
    auto two = recordDraws(2);
    auto four = recordDraws(4);

    // 12 samples / batch 4 = 3 batches per epoch, 2 epochs.
    ASSERT_EQ(serial.first.size(), 6u);
    EXPECT_EQ(serial.first, two.first);
    EXPECT_EQ(serial.first, four.first);
    EXPECT_TRUE(bitwiseEqual(serial.second, two.second));
    EXPECT_TRUE(bitwiseEqual(serial.second, four.second));
}

TEST(Perturbation, EvaluationRunsCleanAfterVaccinatedEpoch)
{
    SystemSpec sys = tinySpec(16);
    Rng rng(1);
    DonnModel model = ModelBuilder(sys, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset train = makeSynthDigits(12, 1);
    ClassDataset test = makeSynthDigits(8, 2);
    ClassificationTask task(model, train, &test);
    task.setPerturbationSpec(fullSpec());
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch = 4;
    cfg.workers = 1;
    cfg.seed = 5;
    Session(task, cfg).fit();
    // The Session detaches the realization before test evaluation and at
    // epoch end; nothing may remain attached.
    EXPECT_EQ(task.currentPerturbation(), nullptr);
}

// --------------------------------------------------------------------------
// Zero-allocation: perturbed steady-state train steps
// --------------------------------------------------------------------------

TEST(AllocStats, VaccinatedTrainStepAllocatesNothing)
{
    if (!fieldAllocStatsEnabled())
        GTEST_SKIP() << "build with -DLIGHTRIDGE_ALLOC_STATS=ON";
    const std::size_t n = 16;
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = idealDistanceHalfCone(Grid{n, 36e-6}, 532e-9);
    Rng rng(5);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .diffractiveLayers(3, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset train = makeSynthDigits(12, 1);
    ClassificationTask task(model, train);

    PerturbationSpec pspec;
    pspec.lateral.kind = ErrorDist::Kind::Uniform;
    pspec.lateral.scale = 36e-6;
    pspec.axial.kind = ErrorDist::Kind::Uniform;
    pspec.axial.scale = 0.02 * spec.distance;
    pspec.axial_levels = 5;
    pspec.phase_sigma = 0.1;
    task.setPerturbationSpec(pspec);

    TrainConfig cfg;
    cfg.workers = 1;
    task.configure(cfg);

    Adam optimizer(cfg.lr);
    optimizer.attach(task.params());

    // Warm the perturbed-kernel working set: every quantized dz level
    // must be resident in the transfer-function LRU before the counted
    // window, or a cold draw would fault in a kernel allocation.
    const Propagator &hop = *model.hopPropagator();
    const PropagatorConfig &pc = hop.config();
    const Grid padded{hop.paddedSize(), pc.grid.pitch};
    std::vector<std::shared_ptr<const Field>> pinned;
    for (Real dz : pspec.axialLevels())
        pinned.push_back(acquireTransferFunction(
            pc.approx, pc.method, padded, pc.wavelength, pc.distance + dz));

    // Warm one full batch: sizes layer caches, ramps, noise screens.
    task.zeroGrad();
    for (std::size_t b = 0; b < 3; ++b) {
        task.samplePerturbation(Session::perturbationDrawSeed(7, 0, b));
        for (std::size_t i = 0; i < train.size(); ++i)
            task.trainSample(i);
    }
    optimizer.step();
    task.zeroGrad();

    resetFieldAllocCount();
    for (std::size_t b = 0; b < 3; ++b) {
        task.samplePerturbation(Session::perturbationDrawSeed(7, 1, b));
        for (std::size_t i = 0; i < train.size(); ++i)
            task.trainSample(i);
    }
    optimizer.step();
    task.zeroGrad();
    task.clearPerturbation();
    EXPECT_EQ(fieldAllocCount(), 0u)
        << "steady-state vaccinated train step must not allocate Fields";
}

// --------------------------------------------------------------------------
// Spec parsing
// --------------------------------------------------------------------------

TEST(PerturbationSpecJson, RoundTrip)
{
    PerturbationSpec spec = fullSpec();
    PerturbationSpec back = PerturbationSpec::fromJson(spec.toJson());
    EXPECT_EQ(back.enabled, spec.enabled);
    EXPECT_EQ(back.lateral.kind, spec.lateral.kind);
    EXPECT_EQ(back.lateral.scale, spec.lateral.scale);
    EXPECT_EQ(back.axial.kind, spec.axial.kind);
    EXPECT_EQ(back.axial.scale, spec.axial.scale);
    EXPECT_EQ(back.axial_levels, spec.axial_levels);
    EXPECT_EQ(back.phase_sigma, spec.phase_sigma);
    EXPECT_TRUE(back.active());
}

TEST(PerturbationSpecJson, StrictParsing)
{
    EXPECT_THROW(PerturbationSpec::fromJson(
                     Json::parse("{\"latteral\": {}}")),
                 JsonError);
    EXPECT_THROW(PerturbationSpec::fromJson(Json::parse(
                     "{\"lateral\": {\"dist\": \"uniform\", \"scale\": "
                     "1e-6, \"sigma\": 2}}")),
                 JsonError);
    EXPECT_THROW(PerturbationSpec::fromJson(Json::parse(
                     "{\"lateral\": {\"dist\": \"triangular\", "
                     "\"scale\": 1e-6}}")),
                 JsonError);
    EXPECT_THROW(PerturbationSpec::fromJson(Json::parse(
                     "{\"lateral\": {\"dist\": \"uniform\", \"scale\": "
                     "-1e-6}}")),
                 JsonError);
    EXPECT_THROW(PerturbationSpec::fromJson(Json::parse(
                     "{\"axial\": {\"dist\": \"uniform\", \"scale\": "
                     "1e-4, \"levels\": 1}}")),
                 JsonError);
    EXPECT_THROW(PerturbationSpec::fromJson(
                     Json::parse("{\"phase_sigma\": -0.1}")),
                 JsonError);
}

TEST(PerturbationSpecJson, QuantizationLevels)
{
    PerturbationSpec spec;
    spec.axial.kind = ErrorDist::Kind::Uniform;
    spec.axial.scale = 0.004;
    spec.axial_levels = 5;
    const std::vector<Real> levels = spec.axialLevels();
    ASSERT_EQ(levels.size(), 5u);
    EXPECT_DOUBLE_EQ(levels.front(), -0.004);
    EXPECT_DOUBLE_EQ(levels.back(), 0.004);
    EXPECT_DOUBLE_EQ(spec.quantizeAxial(0.0011), 0.002);
    EXPECT_DOUBLE_EQ(spec.quantizeAxial(-0.0009), 0.0); // round to even
    EXPECT_DOUBLE_EQ(spec.quantizeAxial(0.02), 0.004);  // clamped
}

// --------------------------------------------------------------------------
// Robustness sweep engine
// --------------------------------------------------------------------------

TEST(RobustnessSweep, CleanPointMatchesDirectEvaluation)
{
    SystemSpec sys = tinySpec(16);
    Rng rng(3);
    DonnModel model = ModelBuilder(sys, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(10, 1)
                          .build();
    ClassDataset test = makeSynthDigits(16, 2);

    RobustnessSweepConfig cfg;
    cfg.lateral_shifts = {0.0, 36e-6};
    cfg.phase_sigmas = {0.0, 0.5};
    RobustnessReport report = robustnessSweep(model, test, cfg);

    EXPECT_EQ(report.clean_accuracy, evaluateAccuracy(model, test));
    EXPECT_EQ(report.accuracyAt("lateral", 0.0), report.clean_accuracy);
    // The model must come back clean (no realization left attached).
    EXPECT_EQ(model.perturbation(), nullptr);

    // Sweeps are deterministic: rerunning reproduces every point.
    RobustnessReport again = robustnessSweep(model, test, cfg);
    ASSERT_EQ(report.points.size(), again.points.size());
    for (std::size_t i = 0; i < report.points.size(); ++i)
        EXPECT_EQ(report.points[i].accuracy, again.points[i].accuracy);

    // Report helpers agree with the raw points.
    Real mean = 0;
    std::size_t count = 0;
    Real worst = 1;
    for (const RobustnessPoint &p : report.points)
        if (p.axis == "lateral") {
            mean += p.accuracy;
            ++count;
            worst = std::min(worst, p.accuracy);
        }
    ASSERT_EQ(count, 2u);
    EXPECT_DOUBLE_EQ(report.meanAccuracy("lateral"), mean / count);
    EXPECT_DOUBLE_EQ(report.worstAccuracy("lateral"), worst);
}

TEST(RobustnessSweep, JsonShape)
{
    RobustnessReport report;
    report.clean_accuracy = 0.9;
    report.points.push_back({"lateral", 0.0, 0.9});
    report.points.push_back({"lateral", 1e-5, 0.8});
    report.points.push_back({"detector", 0.01, 0.85});
    Json j = report.toJson();
    EXPECT_EQ(j.at("clean_accuracy").asNumber(), 0.9);
    const Json &curves = j.at("curves");
    ASSERT_TRUE(curves.has("lateral"));
    ASSERT_TRUE(curves.has("detector"));
    EXPECT_FALSE(curves.has("axial"));
    EXPECT_EQ(curves.at("lateral").asArray().size(), 2u);
    EXPECT_EQ(curves.at("lateral").asArray()[1].at("accuracy").asNumber(),
              0.8);
}

} // namespace
} // namespace lightridge
