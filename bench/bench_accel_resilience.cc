/**
 * @file
 * Accelerator resilience benchmark: sweeps the hardware fault model
 * over fault kinds, rates, and retired-lane counts, and closes the
 * loop functionally by injecting the surviving (ECC-escaping) faults
 * into the RITNet / FBNet activations through the NN runtime's
 * activation tap.
 *
 * Reported:
 *  - perf sweep: FPS / utilization / ECC counters / energy for
 *    0..8 retired lanes under a mixed transient-fault load;
 *  - per-kind sweep: what each fault kind alone does to the frame;
 *  - functional sweep: segmentation mIOU and gaze error, clean vs
 *    faulted with ECC on vs ECC off.
 *
 * Acceptance (exit code):
 *  - zero fault rates leave the perf report bitwise identical to the
 *    clean simulation;
 *  - FPS under lane retirement degrades proportionally to the
 *    surviving lane count (never faster than 0.8x the lane ratio);
 *  - with <= 4 retired lanes and ECC enabled, end-to-end gaze error
 *    stays within 1.5x the clean baseline.
 *
 * Results print as tables and merge into BENCH_accel_resilience.json
 * (override the path with argv[1]).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/hw_faults.h"
#include "accel/simulator.h"
#include "common/perf_json.h"
#include "common/stats.h"
#include "dataset/synthetic_eye.h"
#include "eyetrack/gaze_estimator.h"
#include "eyetrack/segmentation.h"

using namespace eyecod;
using namespace eyecod::accel;

namespace {

constexpr long kCounterFrames = 32; ///< Frames for ECC statistics.
constexpr int kFunctionalFrames = 6;
constexpr uint64_t kSeed = 0xacce1;
constexpr uint64_t kRitnetTag = 0x517e7;
constexpr uint64_t kFbnetTag = 0xfb2e7;

/** ECC counters accumulated over kCounterFrames (cheap: no sim). */
EccCounters
accumulateEcc(const HwFaultInjector &inj)
{
    EccCounters total;
    for (long f = 0; f < kCounterFrames; ++f)
        total += inj.classify(inj.plan(f), f);
    return total;
}

long long
accumulateSilent(const HwFaultInjector &inj)
{
    long long n = 0;
    for (long f = 0; f < kCounterFrames; ++f)
        n += inj.silentEvents(f);
    return n;
}

/** Functional metrics of one segmentation + gaze pass. */
struct FunctionalRun
{
    double miou = 0.0;          ///< vs ground-truth masks.
    double gaze_error_deg = 0.0; ///< vs ground-truth gaze.
    double seg_agreement = 0.0; ///< mIOU vs the clean run's masks.
    double gaze_shift_deg = 0.0; ///< Angle vs the clean run's gaze.
};

/**
 * Run the neural segmenter + gaze estimator over the sample set,
 * optionally perturbing every step's activations through the fault
 * injector. @p clean, when non-null, supplies the fault-free outputs
 * for the agreement metrics.
 */
FunctionalRun
runFunctional(const std::vector<dataset::EyeSample> &samples,
              const HwFaultInjector *inj,
              std::vector<dataset::SegMask> *masks_out,
              std::vector<dataset::GazeVec> *gazes_out,
              const std::vector<dataset::SegMask> *clean_masks,
              const std::vector<dataset::GazeVec> *clean_gazes)
{
    eyetrack::NeuralSegmenter seg;
    eyetrack::NeuralGazeEstimator gaze;

    long frame = 0;
    if (inj) {
        seg.backend().setActivationTap(
            [&](const nn::ExecutionPlan::Step &step, nn::Tensor &t) {
                inj->corruptStepOutput(t, frame, kRitnetTag,
                                       step.node);
            });
        gaze.backend().setActivationTap(
            [&](const nn::ExecutionPlan::Step &step, nn::Tensor &t) {
                inj->corruptStepOutput(t, frame, kFbnetTag,
                                       step.node);
            });
    }

    FunctionalRun run;
    for (size_t i = 0; i < samples.size(); ++i) {
        frame = long(i);
        const dataset::EyeSample &s = samples[i];
        const dataset::SegMask mask = seg.segment(s.image);
        const dataset::GazeVec g = gaze.predict(s.image);

        // The ground-truth mask lives at the render resolution; the
        // predicted mask at the network's. Compare at the network
        // resolution (the renderer uses the same 64 px default).
        run.miou += eyetrack::segmentationIou(mask, s.mask)[4];
        run.gaze_error_deg += dataset::angularErrorDeg(g, s.gaze);
        if (clean_masks)
            run.seg_agreement += eyetrack::segmentationIou(
                mask, (*clean_masks)[i])[4];
        if (clean_gazes)
            run.gaze_shift_deg +=
                dataset::angularErrorDeg(g, (*clean_gazes)[i]);
        if (masks_out)
            masks_out->push_back(mask);
        if (gazes_out)
            gazes_out->push_back(g);
    }
    const double n = double(samples.size());
    run.miou /= n;
    run.gaze_error_deg /= n;
    run.seg_agreement /= n;
    run.gaze_shift_deg /= n;
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_accel_resilience.json";
    PerfJson json = PerfJson::load(json_path);

    const auto workloads =
        buildPipelineWorkload(PipelineWorkloadConfig{});
    const HwConfig hw;
    const EnergyModel energy;
    bool all_ok = true;

    const auto clean = simulateChecked(workloads, hw, energy);
    if (!clean.ok()) {
        std::fprintf(stderr, "clean simulation failed: %s\n",
                     clean.status().toString().c_str());
        return 1;
    }
    const PerfReport &base = clean.value();
    json.set("clean", "fps", base.fps);
    json.set("clean", "utilization", base.utilization);
    json.set("clean", "energy_per_frame_j", base.energy_per_frame_j);

    // --- Zero-rate identity: the faulted path must be bitwise
    // identical to the clean simulation. ---
    {
        const HwFaultInjector inj(HwFaultConfig{}, hw);
        const auto r = simulateFaulted(workloads, hw, energy, inj, 0);
        const bool identical =
            r.ok() && r.value().frame_cycles == base.frame_cycles &&
            r.value().fps == base.fps &&
            r.value().utilization == base.utilization &&
            r.value().energy_per_frame_j == base.energy_per_frame_j &&
            r.value().power_w == base.power_w;
        all_ok = all_ok && identical;
        json.set("acceptance", "zero_rate_identity", identical ? 1.0 : 0.0);
    }

    // --- Perf sweep: retired lanes under a mixed transient load. ---
    TextTable perf_t({"retired", "lanes", "fps", "fps ratio",
                      "lane ratio", "util", "ecc corr", "ecc uncorr",
                      "ecc silent", "energy uJ"});
    bool retirement_ok = true;
    for (int retired : {0, 1, 2, 4, 8}) {
        HwFaultConfig cfg;
        cfg.seed = kSeed;
        cfg.retired_lanes = retired;
        cfg.transient_flip_rate = 0.5;
        cfg.stall_rate = 0.02;
        const HwFaultInjector inj(cfg, hw);
        const auto r = simulateFaulted(workloads, hw, energy, inj, 1);
        if (!r.ok()) {
            std::fprintf(stderr, "retired=%d failed: %s\n", retired,
                         r.status().toString().c_str());
            json.write(json_path);
            return 1;
        }
        const PerfReport &p = r.value();
        const EccCounters ecc = accumulateEcc(inj);
        const double fps_ratio = p.fps / base.fps;
        const double lane_ratio =
            double(hw.mac_lanes - retired) / double(hw.mac_lanes);
        // Proportional degradation: throughput never collapses
        // faster than the surviving-lane fraction allows.
        const bool ok = fps_ratio >= 0.8 * lane_ratio &&
                        fps_ratio <= 1.02;
        retirement_ok = retirement_ok && ok;

        perf_t.addRow({std::to_string(retired),
                       std::to_string(p.active_lanes),
                       formatDouble(p.fps, 1),
                       formatDouble(fps_ratio, 3),
                       formatDouble(lane_ratio, 3),
                       formatDouble(p.utilization, 3),
                       std::to_string(ecc.corrected),
                       std::to_string(ecc.detected_uncorrectable),
                       std::to_string(ecc.silent),
                       formatDouble(p.energy_per_frame_j * 1e6, 1)});

        char section[32];
        std::snprintf(section, sizeof(section), "retired_%d",
                      retired);
        json.set(section, "fps", p.fps);
        json.set(section, "fps_ratio", fps_ratio);
        json.set(section, "lane_ratio", lane_ratio);
        json.set(section, "utilization", p.utilization);
        json.set(section, "active_lanes", double(p.active_lanes));
        json.set(section, "ecc_corrected", double(ecc.corrected));
        json.set(section, "ecc_detected_uncorrectable",
                 double(ecc.detected_uncorrectable));
        json.set(section, "ecc_silent", double(ecc.silent));
        json.set(section, "energy_per_frame_j", p.energy_per_frame_j);
    }
    all_ok = all_ok && retirement_ok;
    json.set("acceptance", "retirement_proportional",
             retirement_ok ? 1.0 : 0.0);

    // --- Per-kind sweep: each fault kind alone, low and high rate. ---
    struct KindSpec
    {
        const char *name;
        void (*apply)(HwFaultConfig &, double);
    };
    const KindSpec kinds[] = {
        {"stuck_lane",
         [](HwFaultConfig &c, double r) { c.stuck_lane_rate = r; }},
        {"transient_flip",
         [](HwFaultConfig &c, double r) {
             c.transient_flip_rate = 40.0 * r;
         }},
        {"persistent_flip",
         [](HwFaultConfig &c, double r) {
             c.persistent_flip_rate = r;
         }},
        {"stall",
         [](HwFaultConfig &c, double r) { c.stall_rate = r; }},
    };
    TextTable kind_t({"kind", "rate", "silent/32f", "ecc overhead",
                      "fps", "fps ratio"});
    for (const KindSpec &kind : kinds) {
        for (double rate : {0.01, 0.10}) {
            HwFaultConfig cfg;
            cfg.seed = kSeed;
            kind.apply(cfg, rate);
            const HwFaultInjector inj(cfg, hw);
            const auto r =
                simulateFaulted(workloads, hw, energy, inj, 1);
            if (!r.ok()) {
                std::fprintf(stderr, "%s@%g failed: %s\n", kind.name,
                             rate, r.status().toString().c_str());
                json.write(json_path);
                return 1;
            }
            const EccCounters ecc = accumulateEcc(inj);
            const long long silent = accumulateSilent(inj);
            const double fps_ratio = r.value().fps / base.fps;

            char label[16];
            std::snprintf(label, sizeof(label), "%.0f%%",
                          rate * 100.0);
            kind_t.addRow({kind.name, label, std::to_string(silent),
                           std::to_string(ecc.overhead_cycles),
                           formatDouble(r.value().fps, 1),
                           formatDouble(fps_ratio, 3)});

            char section[48];
            std::snprintf(section, sizeof(section), "kind_%s_%dpct",
                          kind.name,
                          int(std::lround(rate * 100.0)));
            json.set(section, "fps", r.value().fps);
            json.set(section, "fps_ratio", fps_ratio);
            json.set(section, "silent_events", double(silent));
            json.set(section, "ecc_overhead_cycles",
                     double(ecc.overhead_cycles));
        }
    }

    // --- Functional sweep: silent faults through the activation
    // tap, ECC on vs off, 4 retired lanes. ---
    dataset::RenderConfig rc;
    rc.image_size = 64;
    const dataset::SyntheticEyeRenderer ren(rc, 2022);
    std::vector<dataset::EyeSample> samples;
    for (int i = 0; i < kFunctionalFrames; ++i)
        samples.push_back(ren.sample(uint64_t(i)));

    std::vector<dataset::SegMask> clean_masks;
    std::vector<dataset::GazeVec> clean_gazes;
    const FunctionalRun fclean = runFunctional(
        samples, nullptr, &clean_masks, &clean_gazes, nullptr,
        nullptr);

    HwFaultConfig func_cfg;
    func_cfg.seed = kSeed;
    func_cfg.retired_lanes = 4;
    func_cfg.stuck_lane_rate = 0.02;
    func_cfg.transient_flip_rate = 1.0;
    HwFaultConfig func_noecc = func_cfg;
    func_noecc.ecc.enabled = false;

    const HwFaultInjector inj_ecc(func_cfg, hw);
    const HwFaultInjector inj_noecc(func_noecc, hw);
    const FunctionalRun fecc =
        runFunctional(samples, &inj_ecc, nullptr, nullptr,
                      &clean_masks, &clean_gazes);
    const FunctionalRun fraw =
        runFunctional(samples, &inj_noecc, nullptr, nullptr,
                      &clean_masks, &clean_gazes);

    TextTable func_t({"config", "mIOU", "gaze err", "seg agree",
                      "gaze shift"});
    func_t.addRow({"clean", formatDouble(fclean.miou, 1),
                   formatDouble(fclean.gaze_error_deg, 2), "100.0",
                   "0.00"});
    func_t.addRow({"ecc on", formatDouble(fecc.miou, 1),
                   formatDouble(fecc.gaze_error_deg, 2),
                   formatDouble(fecc.seg_agreement, 1),
                   formatDouble(fecc.gaze_shift_deg, 2)});
    func_t.addRow({"ecc off", formatDouble(fraw.miou, 1),
                   formatDouble(fraw.gaze_error_deg, 2),
                   formatDouble(fraw.seg_agreement, 1),
                   formatDouble(fraw.gaze_shift_deg, 2)});

    const struct
    {
        const char *section;
        const FunctionalRun *run;
    } func_rows[] = {{"functional_clean", &fclean},
                     {"functional_ecc_on", &fecc},
                     {"functional_ecc_off", &fraw}};
    for (const auto &row : func_rows) {
        json.set(row.section, "miou", row.run->miou);
        json.set(row.section, "gaze_error_deg", row.run->gaze_error_deg);
        json.set(row.section, "seg_agreement_miou", row.run->seg_agreement);
        json.set(row.section, "gaze_shift_deg", row.run->gaze_shift_deg);
    }

    // Acceptance: ECC + <= 4 retired lanes keeps gaze error within
    // 1.5x the clean baseline.
    const double gaze_ratio =
        fclean.gaze_error_deg > 0.0
            ? fecc.gaze_error_deg / fclean.gaze_error_deg
            : 1.0;
    const bool gaze_ok = gaze_ratio <= 1.5;
    all_ok = all_ok && gaze_ok;
    json.set("acceptance", "gaze_error_ratio", gaze_ratio);
    json.set("acceptance", "gaze_within_1p5x_with_ecc", gaze_ok ? 1.0 : 0.0);

    std::printf(
        "=== Accelerator resilience: lane retirement + mixed "
        "transients ===\nclean: %.1f FPS, %.3f utilization\n%s\n"
        "=== Per-kind fault sweep (silent events over %ld frames) "
        "===\n%s\n"
        "=== Functional: silent faults through the activation tap "
        "(%d frames, 4 retired lanes) ===\n%s\n"
        "gaze error ratio with ECC = %.3f (acceptance <= 1.5): %s\n"
        "results merged into %s\n",
        base.fps, base.utilization, perf_t.render().c_str(),
        kCounterFrames, kind_t.render().c_str(), kFunctionalFrames,
        func_t.render().c_str(), gaze_ratio,
        all_ok ? "PASS" : "FAIL", json_path.c_str());
    json.write(json_path);
    return all_ok ? 0 : 1;
}
