/**
 * @file
 * Figure 13 reproduction: all-optical image segmentation.
 *
 * Paper: a 5-layer DONN with an optical skip connection and training-only
 * LayerNorm segments CityScapes buildings markedly better than the
 * [34]/[68] baseline (no skip, no LayerNorm), especially on edges and
 * small objects. Here: the same architecture pair on the synthetic street
 * scenes, scored by IoU and per-pixel MSE; qualitative PGMs dumped to
 * bench_results/.
 */
#include <cstdio>

#include "bench_common.hpp"
#include "core/layer_norm.hpp"
#include "core/skip.hpp"
#include "core/session.hpp"
#include "data/synth_city.hpp"
#include "utils/image_io.hpp"

using namespace lightridge;

namespace {

/**
 * Figure 13a architecture: the beam splitter sits right after the input
 * encoding plane and the shortcut (mirror path over the equivalent
 * optical distance) rejoins just before the detector, bypassing the whole
 * diffractive stack and restoring less-diffracted input features.
 */
DonnModel
buildSeg(const SystemSpec &spec, const Laser &laser, bool with_skip,
         bool with_layernorm, uint64_t seed)
{
    const std::size_t depth = 5;
    Rng rng(seed);
    DonnModel model(spec, laser);
    auto hop = model.hopPropagator();
    std::vector<LayerPtr> stack;
    for (std::size_t l = 0; l < depth; ++l)
        stack.push_back(std::make_unique<DiffractiveLayer>(hop, 1.0, &rng));
    if (with_skip) {
        PropagatorConfig sc;
        sc.grid = spec.grid();
        sc.wavelength = laser.wavelength;
        sc.distance = depth * spec.distance;
        model.addLayer(std::make_unique<OpticalSkipLayer>(
            std::move(stack), std::make_shared<Propagator>(sc)));
    } else {
        for (auto &layer : stack)
            model.addLayer(std::move(layer));
    }
    if (with_layernorm)
        model.addLayer(std::make_unique<LayerNormLayer>());
    model.setDetector(
        DetectorPlane(DetectorPlane::gridLayout(spec.size, 2, 2)));
    return model;
}

} // namespace

int
main()
{
    bench::banner("Figure 13: all-optical segmentation",
                  "paper Fig. 13: skip + LayerNorm beats baseline");

    const std::size_t size = scaled<std::size_t>(48, 350);
    const int epochs = scaled(10, 20);
    const std::size_t n_train = scaled<std::size_t>(200, 1500);

    CityConfig ccfg;
    ccfg.image_size = size;
    SegDataset train = makeSynthCity(n_train, 1, ccfg);
    SegDataset test = makeSynthCity(n_train / 4, 2, ccfg);

    SystemSpec spec;
    spec.size = size;
    spec.pixel = 36e-6;
    Laser laser;
    spec.distance = idealDistanceHalfCone(spec.grid(), laser.wavelength);

    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = 0.08;
    cfg.batch = 8;

    std::printf("training ours (optical skip + LayerNorm)...\n");
    DonnModel ours = buildSeg(spec, laser, true, true, 3);
    SegmentationTask ours_task(ours, train);
    Session(ours_task, cfg).fit();

    std::printf("training baseline [34]/[68] (no skip, no LayerNorm)...\n");
    DonnModel base = buildSeg(spec, laser, false, false, 3);
    TrainConfig base_cfg = cfg;
    base_cfg.calibrate = false;
    SegmentationTask base_task(base, train);
    Session(base_task, base_cfg).fit();

    Real ours_iou = ours_task.evaluateIou(test);
    Real ours_mse = ours_task.evaluateMse(test);
    Real base_iou = base_task.evaluateIou(test);
    Real base_mse = base_task.evaluateMse(test);

    std::printf("\n%-28s %-8s %s\n", "model", "IoU", "pixel MSE");
    std::printf("%-28s %-8.3f %.4f\n", "ours (skip + LayerNorm)", ours_iou,
                ours_mse);
    std::printf("%-28s %-8.3f %.4f\n", "baseline [34]/[68]", base_iou,
                base_mse);
    std::printf("\npaper shape: ours clearly sharper (better IoU / lower "
                "MSE), biggest gains on edges and small objects.\n");

    for (std::size_t i = 0; i < 3 && i < test.size(); ++i) {
        std::string stem =
            bench::resultsDir() + "/fig13_sample" + std::to_string(i);
        writePgm(stem + "_input.pgm",
                 toGray(test.images[i].raw(), size, size));
        writePgm(stem + "_target.pgm",
                 toGray(test.masks[i].raw(), size, size));
        RealMap p_ours = ours_task.predictMask(test.images[i]);
        RealMap p_base = base_task.predictMask(test.images[i]);
        writePgm(stem + "_ours.pgm", toGray(p_ours.raw(), size, size));
        writePgm(stem + "_baseline.pgm", toGray(p_base.raw(), size, size));
    }
    std::printf("qualitative PGMs in %s/\n", bench::resultsDir().c_str());

    CsvWriter csv;
    csv.header({"model", "iou", "mse"});
    csv.row({"ours", std::to_string(ours_iou), std::to_string(ours_mse)});
    csv.row({"baseline", std::to_string(base_iou), std::to_string(base_mse)});
    bench::saveCsv(csv, "fig13_segmentation");
    return 0;
}
