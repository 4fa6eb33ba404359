/**
 * @file
 * Fault-recovery benchmark: runs the predict-then-focus pipeline on
 * moving-eye trajectories through a bounded sensor-fault outage
 * (mixed dropped frames, dead/hot pixel blocks, saturation, burst
 * noise, NaN-poisoned reconstructions) and measures how gracefully
 * it degrades and how fast it recovers once the faults stop.
 *
 * Reported per fault rate (2%, 5%, 10% per kind per frame):
 *  - mean angular error during the outage and over the whole run;
 *  - recovery error: mean error over the one-roi_refresh-window tail
 *    after the last injected fault, and its ratio to the clean-run
 *    error on the same tail (the robustness acceptance bound is
 *    recovery_ratio <= 1.25);
 *  - health counters: degraded/drop fractions, watchdog retries,
 *    mean recovery latency.
 *
 * Results print as a table and merge into BENCH_robustness.json
 * (override the path with argv[1]).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/stats.h"
#include "core/eyecod.h"
#include "dataset/sequence.h"
#include "eyetrack/pipeline.h"

using namespace eyecod;
using namespace eyecod::eyetrack;

namespace {

constexpr int kSceneSize = 128;
constexpr int kRoiRefresh = 25;
constexpr int kOutageFrames = 100; ///< Frames with faults active.
constexpr int kTailFrames = kRoiRefresh + 15; ///< Clean tail.
constexpr int kTotalFrames = kOutageFrames + kTailFrames;
constexpr int kTrainCount = 300;
constexpr uint64_t kSubject = 47;

PipelineConfig
baseConfig()
{
    PipelineConfig pc;
    pc.camera = CameraKind::FlatCam;
    pc.scene_size = kSceneSize;
    pc.roi_refresh = kRoiRefresh;
    return pc;
}

struct RunStats
{
    std::vector<double> frame_error; ///< Per-frame angular error.
    HealthStats health;
    bool all_finite = true;
    double mean_recovery_latency = 0.0;

    double
    meanError(int first, int last) const
    {
        double acc = 0.0;
        int n = 0;
        for (int f = first; f < last && f < int(frame_error.size());
             ++f) {
            acc += frame_error[size_t(f)];
            ++n;
        }
        return n > 0 ? acc / double(n) : 0.0;
    }
};

/** Run one trajectory through @p pipe and collect per-frame error. */
RunStats
runSequence(PredictThenFocusPipeline &pipe,
            const dataset::SyntheticEyeRenderer &ren,
            const std::vector<dataset::EyeParams> &traj)
{
    RunStats out;
    out.frame_error.reserve(traj.size());
    pipe.reset();
    for (const auto &p : traj) {
        const dataset::EyeSample s = ren.render(p, 0x5ca1e);
        const auto r = pipe.processFrame(s.image);
        for (double g : r.gaze)
            if (!std::isfinite(g))
                out.all_finite = false;
        out.frame_error.push_back(
            dataset::angularErrorDeg(r.gaze, s.gaze));
    }
    out.health = pipe.healthStats();
    out.mean_recovery_latency = out.health.meanRecoveryLatency();
    return out;
}

long
totalFaults(const HealthStats &h)
{
    long n = 0;
    for (long c : h.fault_counts)
        n += c;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_robustness.json";
    PerfJson json = PerfJson::load(json_path);

    dataset::RenderConfig rc;
    rc.image_size = kSceneSize;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);

    dataset::TrajectoryConfig tc;
    tc.frames = kTotalFrames;
    const auto traj = makeTrajectory(ren, kSubject, tc);

    // Train once on the clean pipeline; faulted pipelines reuse the
    // trained estimator (deployment does not retrain under faults).
    PredictThenFocusPipeline clean_pipe(baseConfig());
    clean_pipe.trainGaze(ren, kTrainCount);
    const RunStats clean = runSequence(clean_pipe, ren, traj);
    const double clean_error = clean.meanError(0, kTotalFrames);
    const double clean_tail_error =
        clean.meanError(kOutageFrames, kTotalFrames);

    json.set("clean", "error_deg", clean_error);
    json.set("clean", "tail_error_deg", clean_tail_error);
    json.set("clean", "frames", double(kTotalFrames));

    TextTable t({"fault rate", "outage err", "recovery err",
                 "recovery ratio", "degraded %", "dropped", "faults",
                 "mean latency", "finite"});

    const double rates[] = {0.02, 0.05, 0.10};
    bool all_ok = true;
    for (double rate : rates) {
        PipelineConfig pc = baseConfig();
        pc.faults = flatcam::FaultConfig::mixed(rate);
        pc.faults.last_frame = kOutageFrames - 1;
        PredictThenFocusPipeline pipe(pc);
        pipe.gazeEstimator() = clean_pipe.gazeEstimator();

        const RunStats run = runSequence(pipe, ren, traj);
        const double outage_error = run.meanError(0, kOutageFrames);

        // Recovery tail: one roi_refresh window after the last frame
        // that actually saw a fault (the watchdog may still be mid
        // backoff at the outage boundary).
        const double recovery_error = run.meanError(
            kOutageFrames, kOutageFrames + kRoiRefresh);
        const double recovery_base = clean.meanError(
            kOutageFrames, kOutageFrames + kRoiRefresh);
        const double ratio = recovery_base > 0.0
                                 ? recovery_error / recovery_base
                                 : 0.0;

        const bool ok = run.all_finite && ratio <= 1.25;
        all_ok = all_ok && ok;

        const double degraded_pct =
            100.0 * double(run.health.degraded_frames) /
            double(run.health.frames);

        char label[32];
        std::snprintf(label, sizeof(label), "%.0f%%", rate * 100.0);
        t.addRow({label, formatDouble(outage_error, 2),
                  formatDouble(recovery_error, 2),
                  formatDouble(ratio, 3),
                  formatDouble(degraded_pct, 1),
                  std::to_string(run.health.dropped_frames),
                  std::to_string(totalFaults(run.health)),
                  formatDouble(run.mean_recovery_latency, 1),
                  run.all_finite ? "yes" : "NO"});

        char section[32];
        std::snprintf(section, sizeof(section), "mixed_%dpct",
                      int(std::lround(rate * 100.0)));
        json.set(section, "outage_error_deg", outage_error);
        json.set(section, "recovery_error_deg", recovery_error);
        json.set(section, "recovery_ratio", ratio);
        json.set(section, "degraded_fraction",
                 double(run.health.degraded_frames) /
                 double(run.health.frames));
        json.set(section, "dropped_frames", double(run.health.dropped_frames));
        json.set(section, "faults_injected", double(totalFaults(run.health)));
        json.set(section, "watchdog_retries",
                 double(run.health.watchdog_retries));
        json.set(section, "mean_recovery_latency_frames",
                 run.mean_recovery_latency);
        json.set(section, "all_gaze_finite", run.all_finite ? 1.0 : 0.0);
    }

    json.set("acceptance", "recovered_within_1p25x", all_ok ? 1.0 : 0.0);

    std::printf("=== Fault recovery: mixed-fault outage (%d frames) "
                "+ clean tail ===\n"
                "clean error %.2f deg (tail %.2f deg), "
                "roi_refresh %d\n%s\n"
                "recovery ratio = tail error after last fault vs the "
                "clean run on the same tail window "
                "(acceptance <= 1.25): %s\n"
                "results merged into %s\n",
                kOutageFrames, clean_error, clean_tail_error,
                kRoiRefresh, t.render().c_str(),
                all_ok ? "PASS" : "FAIL", json_path.c_str());
    json.write(json_path);
    return all_ok ? 0 : 1;
}
