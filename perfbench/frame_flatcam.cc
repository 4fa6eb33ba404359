/**
 * @file
 * Workload frame_flatcam: one FlatCam session run closed loop (one
 * caller, next frame only after the previous one returns). Setup
 * renders a seeded eye trajectory ahead of time, so the timed loop is
 * the paper's frame path alone: capture, Tikhonov reconstruction,
 * segmentation + ROI every roi_refresh frames, and gaze.
 *
 * The traced phase rebuilds the pipeline's stages from their public
 * types and times each call, so the stage spans add up to the frame.
 * Every traced frame is also run through processFrameRef() outside
 * the spans; the decomposition must reproduce its view and gaze
 * bitwise, or the breakdown does not describe the real frame.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.h"
#include "dataset/gaze_math.h"
#include "dataset/sequence.h"
#include "eyetrack/pipeline.h"
#include "flatcam/mask.h"

namespace perfbench {

using namespace eyecod;

namespace {

constexpr int kFramesPerPass = 100;
constexpr int kTrainSamples = 120;
constexpr uint64_t kRendererSeed = 2019;

eyetrack::PipelineConfig
frameConfig()
{
    eyetrack::PipelineConfig pc;
    pc.camera = eyetrack::CameraKind::FlatCam;
    pc.roi_refresh = 50;
    return pc;
}

/** The mask configuration PredictThenFocusPipeline derives. */
flatcam::MaskConfig
pipelineMaskConfig(const eyetrack::PipelineConfig &pc)
{
    flatcam::MaskConfig mc;
    mc.scene_rows = pc.scene_size;
    mc.scene_cols = pc.scene_size;
    mc.sensor_rows = pc.scene_size + pc.flatcam_sensor_margin;
    mc.sensor_cols = pc.scene_size + pc.flatcam_sensor_margin;
    mc.seed = pc.mask_seed;
    mc.mls_order = 3;
    while ((1 << mc.mls_order) - 1 < mc.sensor_rows)
        ++mc.mls_order;
    return mc;
}

/**
 * The pipeline's frame, one public call per stage. Mirrors the ROI
 * chain of PredictThenFocusPipeline::processFrameRef on a fault-free
 * camera: the predict-then-focus rotation, the sanity gate with its
 * watchdog retry, and the stale-chain fallback.
 */
class StageChain
{
  public:
    explicit StageChain(eyetrack::PredictThenFocusPipeline &pipe)
        : pipe_(pipe), cfg_(pipe.config()),
          sensor_(flatcam::makeSeparableMask(pipelineMaskConfig(cfg_)),
                  cfg_.sensor_noise),
          recon_(sensor_.mask(), cfg_.recon_epsilon)
    {
    }

    void
    reset()
    {
        sensor_.resetNoise();
        frame_ = 0;
        current_.reset();
        next_.reset();
        last_good_.reset();
        crop_rng_ = 0x5eed;
        last_accept_ = -1;
        retry_in_ = -1;
        backoff_ = cfg_.watchdog.initial_backoff;
        outage_start_ = -1;
        last_gaze_ = dataset::GazeVec{0, 0, 1};
        has_last_gaze_ = false;
    }

    /** Run one frame under spans; returns the emitted gaze. */
    dataset::GazeVec
    frame(const Image &scene, Tracer &t)
    {
        const long f = frame_;
        {
            Tracer::Scope s(t, "flatcam.capture", f);
            status_ok_ &= sensor_.captureFrameInto(
                ImageConstView::of(scene), f, &meas_).isOk();
        }
        {
            Tracer::Scope s(t, "flatcam.reconstruct", f);
            status_ok_ &= recon_.reconstructFrameInto(
                ImageConstView::of(meas_), &view_).isOk();
        }

        bool forced = false;
        if (retry_in_ > 0)
            --retry_in_;
        if (cfg_.watchdog.enabled && retry_in_ == 0) {
            forced = true;
            retry_in_ = -1;
        }
        bool rejected = false;
        if (f % cfg_.roi_refresh == 0 || forced) {
            dataset::SegMask mask;
            {
                Tracer::Scope s(t, "eyetrack.segment", f);
                mask = pipe_.segmenter().segment(
                    ImageConstView::of(view_));
            }
            Tracer::Scope s(t, "eyetrack.roi", f);
            rejected = !refreshRoi(mask, forced);
        }

        Rect roi;
        bool predicted = false;
        const long stale = long(cfg_.stale_limit_windows) *
                           cfg_.roi_refresh;
        if (current_ && last_accept_ >= 0 && f - last_accept_ <= stale) {
            roi = *current_;
            predicted = true;
        } else if (last_good_) {
            roi = *last_good_;
        } else {
            roi.height = cfg_.roi_height;
            roi.width = cfg_.roi_width;
            roi.y = (cfg_.scene_size - cfg_.roi_height) / 2;
            roi.x = (cfg_.scene_size - cfg_.roi_width) / 2;
        }

        dataset::GazeVec g;
        {
            Tracer::Scope s(t, "eyetrack.gaze", f);
            const ImageConstView src = ImageConstView::of(view_);
            if (src.contains(roi)) {
                g = pipe_.gazeEstimator().predict(
                    src.subview(roi).value());
            } else {
                crop_.resetShape(roi.height, roi.width);
                for (int y = 0; y < roi.height; ++y)
                    for (int x = 0; x < roi.width; ++x)
                        crop_.at(y, x) =
                            src.atClamped(roi.y + y, roi.x + x);
                g = pipe_.gazeEstimator().predict(
                    ImageConstView::of(crop_));
            }
        }
        bool held = false;
        if (!isFinite(g)) {
            g = has_last_gaze_ ? last_gaze_ : dataset::GazeVec{0, 0, 1};
            held = true;
        } else {
            last_gaze_ = g;
            has_last_gaze_ = true;
        }
        const bool degraded = rejected || forced || held || !predicted;
        if (degraded && outage_start_ < 0)
            outage_start_ = f;
        else if (!degraded && outage_start_ >= 0)
            outage_start_ = -1;
        ++frame_;
        return g;
    }

    const Image &view() const { return view_; }
    bool statusOk() const { return status_ok_; }

    /** Capture + reconstruction multiply-accumulates, from shapes. */
    long long
    flatcamMacs() const
    {
        const long long sr = sensor_.sensorRows();
        const long long sc = sensor_.sensorCols();
        const long long xr = sensor_.sceneRows();
        const long long xc = sensor_.sceneCols();
        // PhiL * X, then (PhiL X) * PhiR^T.
        return sr * xr * xc + sr * xc * sc + recon_.macsPerFrame();
    }

  private:
    /** Gate the fresh ROI and rotate the chain; false on reject. */
    bool
    refreshRoi(const dataset::SegMask &mask, bool forced)
    {
        const eyetrack::MaskStats stats =
            eyetrack::computeMaskStats(mask);
        const Rect cand =
            pipe_.roiPredictor().predict(mask, cfg_.policy, &crop_rng_);
        const eyetrack::RoiGateDecision gate =
            eyetrack::validateRoi(mask, stats, cand, cfg_.roi_gate);
        if (gate.accepted) {
            if (forced || outage_start_ >= 0) {
                current_ = cand;
                next_ = cand;
            } else {
                if (next_)
                    current_ = next_;
                next_ = cand;
                if (!current_)
                    current_ = next_;
            }
            last_good_ = cand;
            last_accept_ = frame_;
            retry_in_ = -1;
            backoff_ = cfg_.watchdog.initial_backoff;
            return true;
        }
        if (cfg_.watchdog.enabled) {
            retry_in_ = backoff_;
            const int cap =
                std::min(cfg_.watchdog.max_backoff, cfg_.roi_refresh);
            backoff_ = std::min(backoff_ * 2, std::max(1, cap));
        }
        return false;
    }

    eyetrack::PredictThenFocusPipeline &pipe_;
    const eyetrack::PipelineConfig cfg_;
    flatcam::FlatCamSensor sensor_;
    flatcam::FlatCamReconstructor recon_;
    Image meas_;
    Image view_;
    Image crop_;

    long frame_ = 0;
    std::optional<Rect> current_, next_, last_good_;
    uint64_t crop_rng_ = 0x5eed;
    long last_accept_ = -1;
    long retry_in_ = -1;
    int backoff_ = 1;
    long outage_start_ = -1;
    dataset::GazeVec last_gaze_{0, 0, 1};
    bool has_last_gaze_ = false;

    bool status_ok_ = true;
};

struct FrameSetup
{
    std::unique_ptr<eyetrack::PredictThenFocusPipeline> pipe;
    std::vector<Image> scenes;
    std::vector<dataset::GazeVec> truth;
};

FrameSetup
setUp(uint64_t seed, Tracer &t)
{
    FrameSetup s;
    const eyetrack::PipelineConfig pc = frameConfig();
    dataset::RenderConfig rc;
    rc.image_size = pc.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, kRendererSeed);
    s.pipe = std::make_unique<eyetrack::PredictThenFocusPipeline>(pc);
    s.pipe->trainGaze(ren, kTrainSamples);

    const uint64_t subject = mixSeed(seed, 0xf1a7);
    dataset::TrajectoryConfig tc;
    tc.frames = kFramesPerPass;
    const std::vector<dataset::EyeParams> traj =
        dataset::makeTrajectory(ren, subject, tc);
    for (size_t i = 0; i < traj.size(); ++i) {
        Tracer::Scope span(t, "dataset.render", long(i));
        dataset::EyeSample es = ren.render(traj[i], mixSeed(subject, i));
        s.scenes.push_back(std::move(es.image));
        s.truth.push_back(es.gaze);
    }
    return s;
}

/** Exact outcome of one untraced pass (compared across passes). */
struct PassOutcome
{
    double error_sum_deg = 0.0;
    long segmentations = 0;
    long accepts = 0;
    long nonfinite = 0;

    bool
    operator==(const PassOutcome &o) const
    {
        return std::memcmp(&error_sum_deg, &o.error_sum_deg,
                           sizeof(double)) == 0 &&
               segmentations == o.segmentations &&
               accepts == o.accepts && nonfinite == o.nonfinite;
    }
};

} // namespace

void
runFrameFlatcam(const Options &opt, Report &report)
{
    Tracer setup_trace(opt.trace);
    std::vector<double> setup_s;
    FrameSetup st;
    const int setups = opt.quick ? 1 : 3;
    for (int i = 0; i < setups; ++i) {
        setup_s.push_back(
            referenceMs([&] { st = setUp(opt.seed, setup_trace); }) / 1e3);
    }
    report.set("setup_s", median(setup_s), "s", Kind::Host,
               long(setup_s.size()));

    eyetrack::PredictThenFocusPipeline &pipe = *st.pipe;
    const long n = long(st.scenes.size());
    const double share = opt.trace ? 0.5 : 1.0;

    // --- Untraced phase: the end-to-end numbers.
    std::vector<double> frame_ms, pass_ms, steps;
    ReferenceSteps ref;
    std::optional<PassOutcome> first;
    long passes = 0, repeat_failures = 0, frames = 0, nonfinite = 0;
    const Phase phase(opt, share);
    do {
        pipe.reset();
        PassOutcome out;
        steps.clear();
        ref.beginPass(size_t(n));
        const Clock::time_point p0 = Clock::now();
        for (long i = 0; i < n; ++i) {
            const Clock::time_point f0 = Clock::now();
            const auto &r = pipe.processFrameRef(st.scenes[size_t(i)]);
            steps.push_back(msBetween(f0, Clock::now()));
            ref.step(steps.back());
            if (!isFinite(r.gaze))
                ++out.nonfinite;
            out.error_sum_deg +=
                dataset::angularErrorDeg(r.gaze, st.truth[size_t(i)]);
            if (r.roi_refreshed) {
                ++out.segmentations;
                out.accepts += r.health.roi_rejected ? 0 : 1;
            }
        }
        pass_ms.push_back(msBetween(p0, Clock::now()) - ref.calibratingMs());
        ref.endPass();
        frame_ms.insert(frame_ms.end(), steps.begin(), steps.end());
        nonfinite += out.nonfinite;
        if (!first)
            first = out;
        else if (!(out == *first))
            ++repeat_failures;
        ++passes;
        frames += n;
    } while (phase.another(pass_ms.back()));

    report.operations(frames, 0);
    report.check("frame.gaze_finite", frames, nonfinite);
    report.check("frame.passes_repeat_exactly", passes, repeat_failures);
    report.set("host_fps", double(n) * 1e3 / ref.passMs(), "frames/s",
               Kind::Host, passes);
    report.set("host_frame_ms_p50", median(frame_ms), "ms", Kind::Host,
               long(frame_ms.size()));
    report.set("eyetrack.frame_ms_p99", quantile(frame_ms, 0.99), "ms",
               Kind::Host, long(frame_ms.size()));
    report.set("gaze_error_deg", first->error_sum_deg / double(n), "deg",
               Kind::Modeled, n);
    report.set("eyetrack.segment_calls_per_frame",
               double(first->segmentations) / double(n), "ratio",
               Kind::Count);
    report.set("eyetrack.roi_accept_ratio",
               double(first->accepts) / double(first->segmentations),
               "ratio", Kind::Count);

    StageChain chain(pipe);
    report.set("flatcam.macs_per_frame", double(chain.flatcamMacs()),
               "count", Kind::Count);
    if (!opt.trace)
        return;

    // --- Traced phase: stage spans; processFrameRef as the oracle.
    Tracer t(true);
    long traced_frames = 0, mismatches = 0, nonfinite_views = 0;
    std::vector<double> traced_pass_ms;
    const Phase tphase(opt, share);
    do {
        const Clock::time_point p0 = Clock::now();
        pipe.reset();
        chain.reset();
        for (long i = 0; i < n; ++i) {
            const Image &scene = st.scenes[size_t(i)];
            dataset::GazeVec g;
            {
                Tracer::Scope frame_span(t, "frame", i);
                g = chain.frame(scene, t);
            }
            bool view_finite = true;
            for (float v : chain.view().data())
                view_finite = view_finite && std::isfinite(v);
            nonfinite_views += view_finite ? 0 : 1;
            const auto &r = pipe.processFrameRef(scene);
            const bool same_view =
                r.view.height() == chain.view().height() &&
                r.view.width() == chain.view().width() &&
                std::memcmp(r.view.data().data(),
                            chain.view().data().data(),
                            r.view.size() * sizeof(float)) == 0;
            const bool same_gaze =
                std::memcmp(r.gaze.data(), g.data(), sizeof(g)) == 0;
            mismatches += (same_view && same_gaze) ? 0 : 1;
            ++traced_frames;
        }
        traced_pass_ms.push_back(msBetween(p0, Clock::now()));
    } while (tphase.another(traced_pass_ms.back()));

    report.operations(traced_frames, 0);
    report.check("frame.traced_matches_processFrameRef", traced_frames,
                 mismatches + (chain.statusOk() ? 0 : 1));
    report.check("frame.traced_view_finite", traced_frames,
                 nonfinite_views);

    t.printSummary();
    const auto p50 = [&](const char *name) {
        return median(t.durations(name));
    };
    report.set("dataset.render_ms_p50",
               median(setup_trace.durations("dataset.render")), "ms",
               Kind::Host, long(setup_trace.durations("dataset.render")
                                    .size()));
    report.set("flatcam.capture_ms_p50", p50("flatcam.capture"), "ms",
               Kind::Host, traced_frames);
    report.set("flatcam.reconstruct_ms_p50", p50("flatcam.reconstruct"),
               "ms", Kind::Host, traced_frames);
    const double acquire_ms = t.totalMs("flatcam.capture") +
                              t.totalMs("flatcam.reconstruct");
    report.set("flatcam.gmacs_per_s",
               double(chain.flatcamMacs()) * double(traced_frames) /
                   acquire_ms / 1e6,
               "GMAC/s", Kind::Host);
    report.set("eyetrack.segment_ms_p50", p50("eyetrack.segment"), "ms",
               Kind::Host, long(t.durations("eyetrack.segment").size()));
    report.set("eyetrack.roi_ms_p50", p50("eyetrack.roi"), "ms",
               Kind::Host, long(t.durations("eyetrack.roi").size()));
    report.set("eyetrack.gaze_ms_p50", p50("eyetrack.gaze"), "ms",
               Kind::Host, traced_frames);
    report.set("trace.coverage", t.childMs("frame") / t.totalMs("frame"),
               "ratio", Kind::Host);
    // Traced frame spans against untraced frames; the oracle call that
    // follows each traced frame sits outside its span.
    report.set("trace.overhead_ratio",
               (t.totalMs("frame") / double(traced_frames)) /
                       (sum(frame_ms) / double(frames)) - 1.0,
               "ratio", Kind::Host);
}

} // namespace perfbench
