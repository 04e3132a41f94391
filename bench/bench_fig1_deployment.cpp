/**
 * @file
 * Figure 1 reproduction: model performance and time-to-deployment.
 *
 * Paper: SOTA hardware-in-loop flows deploy at 63.9% out of box (33.7%
 * below simulation) and need days-to-weeks of manual calibration to reach
 * 95.2%; LightRidge's codesign training deploys out of box with only a
 * 2.9% gap and a minutes-to-hours design cycle.
 *
 * Here: train a raw model and a codesign model on the same task, then
 * deploy both onto the simulated SLM (nonlinear response + amplitude
 * coupling + fabrication variation + CMOS noise) and measure the
 * simulation-to-hardware accuracy drop of (a) raw out-of-box, (b) raw
 * after manual response calibration, (c) codesign out-of-box. Wall-clock
 * training/deployment times are reported as the design-cycle proxy.
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "data/synth_digits.hpp"
#include "hardware/deploy.hpp"
#include "utils/timer.hpp"

using namespace lightridge;

int
main()
{
    bench::banner("Figure 1: out-of-box deployment gap",
                  "paper Fig. 1: 33.7% SOTA drop vs 2.9% LightRidge");

    const std::size_t size = scaled<std::size_t>(40, 100);
    const std::size_t depth = scaled<std::size_t>(3, 5);
    const int epochs = scaled(3, 10);
    const std::size_t n_train = scaled<std::size_t>(500, 2000);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    ClassDataset train = makeSynthDigits(n_train, 1);
    ClassDataset test = makeSynthDigits(n_train / 3, 2);

    // An aggressive uncharacterized panel: strong response nonlinearity
    // and amplitude coupling, 16 levels (the SOTA setups the paper
    // compares against fight exactly this kind of miscorrelation).
    SlmDevice slm(16, 0.9 * kTwoPi, 2.0, 0.35);
    FabricationVariation fab = FabricationVariation::typical();
    CmosDetector cmos = CmosDetector::cs165mu1();

    TrainConfig tc;
    tc.epochs = epochs;
    tc.lr = 0.03;

    // Raw training.
    WallTimer raw_timer;
    Rng rng(11);
    DonnModel raw = ModelBuilder(spec, laser)
                        .diffractiveLayers(depth, 1.0, &rng)
                        .detectorGrid(10, size / 10)
                        .build();
    ClassificationTask raw_task(raw, train);
    Session(raw_task, tc).fit();
    double raw_train_s = raw_timer.seconds();
    Real raw_sim = evaluateAccuracy(raw, test);

    // Codesign training (warm-started from raw, as the Fig. 3 flow does).
    WallTimer cd_timer;
    Rng grng(13);
    DonnModel codesign = ModelBuilder(spec, laser)
                             .codesignLayers(depth, slm.lut(), 1.0, 1.0,
                                             &grng)
                             .detectorGrid(10, size / 10)
                             .build();
    for (std::size_t i = 0; i < depth; ++i)
        static_cast<CodesignLayer *>(codesign.layer(i))
            ->initFromPhase(
                static_cast<DiffractiveLayer *>(raw.layer(i))->phase());
    ClassificationTask cd_task(codesign, train);
    Session(cd_task, tc).fit();
    double cd_train_s = cd_timer.seconds();
    Real cd_sim = evaluateAccuracy(codesign, test);

    // Deployments.
    Rng hw_rng(17);
    DonnModel raw_oob =
        deployRaw(raw, slm, fab, &hw_rng, CalibrationMode::OutOfBox);
    Real acc_oob = evaluateDeployed(raw_oob, test, cmos, &hw_rng);
    DonnModel raw_cal =
        deployRaw(raw, slm, fab, &hw_rng, CalibrationMode::Calibrated);
    Real acc_cal = evaluateDeployed(raw_cal, test, cmos, &hw_rng);
    DonnModel cd_hw = deployCodesign(codesign, fab, &hw_rng);
    Real acc_cd = evaluateDeployed(cd_hw, test, cmos, &hw_rng);

    std::printf("\n%-36s %-10s %-10s %s\n", "flow", "sim acc", "hw acc",
                "drop");
    std::printf("%-36s %-10.3f %-10.3f %.1f%%\n",
                "SOTA-style raw, out-of-box", raw_sim, acc_oob,
                100 * (raw_sim - acc_oob));
    std::printf("%-36s %-10.3f %-10.3f %.1f%%\n",
                "SOTA-style raw + manual calibration", raw_sim, acc_cal,
                100 * (raw_sim - acc_cal));
    std::printf("%-36s %-10.3f %-10.3f %.1f%%\n",
                "LightRidge codesign, out-of-box", cd_sim, acc_cd,
                100 * (cd_sim - acc_cd));

    std::printf("\ndesign-cycle proxy (wall clock, this machine):\n");
    std::printf("  raw training:        %.1f s\n", raw_train_s);
    std::printf("  codesign training:   %.1f s (no manual HW calibration "
                "step needed)\n", cd_train_s);
    std::printf("  paper reference: SOTA days-weeks (hardware-in-loop + "
                "manual calibration) vs LightRidge mins-hours\n");
    std::printf("\npaper shape check: drop(raw OOB) >> drop(codesign OOB); "
                "manual calibration recovers most of the raw gap.\n");

    CsvWriter csv;
    csv.header({"flow", "sim_acc", "hw_acc", "drop"});
    csv.rowNumeric({0, raw_sim, acc_oob, raw_sim - acc_oob});
    csv.rowNumeric({1, raw_sim, acc_cal, raw_sim - acc_cal});
    csv.rowNumeric({2, cd_sim, acc_cd, cd_sim - acc_cd});
    bench::saveCsv(csv, "fig1_deployment");
    return 0;
}
