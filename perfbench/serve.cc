/**
 * @file
 * Workloads serve_steady and serve_chaos: the multi-session serving
 * engine replaying seeded open-loop traffic (makeTraffic: 240 FPS per
 * user, 25% arrival jitter). Arrivals are due in virtual time and the
 * replay runs as fast as the host allows, so no host-side generator
 * can fall behind; modeled latency counts from each frame's due time.
 *
 *  - serve_steady: 16 sessions on 4 chips, below saturation. The
 *    happy path: rendering, segmentation and per-tick scheduling.
 *  - serve_chaos: 24 sessions on 4 chips, chip 1 fails and rejoins
 *    mid-run, and the benchmark checkpoints the engine at a fixed
 *    virtual interval (save, restore into the standby engine, and
 *    continue on the standby). The failure, ladder and snapshot side.
 *
 * Engines are built once in setup; each pass restores the engine from
 * the snapshot taken right after construction, so every pass replays
 * the same trace from the same state.
 */

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "common/alloc_counter.h"
#include "common/perf_json.h"
#include "dataset/gaze_math.h"
#include "eyetrack/segmentation.h"
#include "serve/engine.h"

namespace perfbench {

using namespace eyecod;
using namespace eyecod::serve;

namespace {

constexpr uint64_t kRendererSeed = 2019;
constexpr int kTrainSamples = 200;
/** Frames per pass replayed through the layers beside the engine. */
constexpr int kLayerSamples = 16;

struct Scenario
{
    int sessions = 0;
    int chips = 0;
    long frames_per_session = 0;
    std::vector<ChipFaultEvent> chip_faults;
    long long checkpoint_every_us = 0; ///< 0 = no checkpoints.
    bool gaze_error = false; ///< Frames map 1:1 onto gaze logs.
};

Scenario
steadyScenario()
{
    Scenario s;
    s.sessions = 16;
    s.chips = 4;
    s.frames_per_session = 48;
    s.gaze_error = true;
    return s;
}

Scenario
chaosScenario()
{
    Scenario s;
    s.sessions = 24;
    s.chips = 4;
    s.frames_per_session = 120;
    // 156 ms lands mid-batch on chip 1, so in-flight frames are
    // re-dispatched; the outage lasts 150 ms of virtual time.
    s.chip_faults = {
        ChipFaultEvent{156000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{306000, 1, ChipEventKind::Rejoin, 0},
    };
    s.checkpoint_every_us = 100000;
    return s;
}

ServingConfig
servingConfig(const Scenario &sc, int threads)
{
    ServingConfig cfg;
    cfg.system.pipeline.camera = eyetrack::CameraKind::Lens;
    cfg.system.pipeline.roi_refresh = 25;
    cfg.virtual_chips = sc.chips;
    cfg.scheduler_threads = threads;
    cfg.record_gaze = true;
    cfg.failover.chip_faults = sc.chip_faults;
    return cfg;
}

/** One replay event, in runTrace()'s order. */
struct Event
{
    long long t = 0;
    int kind = 0; ///< 0 = join, 1 = frame.
    int trace = 0;
    long frame = 0;
};

struct ServeSetup
{
    std::unique_ptr<dataset::SyntheticEyeRenderer> ren;
    std::vector<SessionTraffic> traffic;
    std::vector<Event> events;
    std::unique_ptr<ServingEngine> active;
    std::unique_ptr<ServingEngine> standby; ///< Checkpoint target.
    std::vector<uint8_t> pristine; ///< Snapshot right after ctor.
    double ctor_s = 0.0;
};

ServeSetup
setUp(const Scenario &sc, const Options &opt)
{
    ServeSetup s;
    const ServingConfig cfg = servingConfig(sc, opt.threads);
    dataset::RenderConfig rc;
    rc.image_size = cfg.system.pipeline.scene_size;
    s.ren = std::make_unique<dataset::SyntheticEyeRenderer>(
        rc, kRendererSeed);
    eyetrack::PredictThenFocusPipeline proto(cfg.system.pipeline);
    proto.trainGaze(*s.ren, kTrainSamples);

    TrafficConfig tc;
    tc.sessions = sc.sessions;
    tc.frames_per_session = sc.frames_per_session;
    tc.frame_interval_us = cfg.frame_interval_us;
    tc.arrival_jitter = 0.25;
    tc.seed = mixSeed(opt.seed, 0x5e7e);
    s.traffic = makeTraffic(*s.ren, tc);
    for (size_t i = 0; i < s.traffic.size(); ++i) {
        s.events.push_back(Event{s.traffic[i].join_us, 0, int(i), 0});
        for (size_t f = 0; f < s.traffic[i].frames.size(); ++f)
            s.events.push_back(Event{s.traffic[i].frames[f].arrival_us,
                                     1, int(i), long(f)});
    }
    std::sort(s.events.begin(), s.events.end(),
              [](const Event &a, const Event &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.frame < b.frame;
              });

    const Clock::time_point c0 = Clock::now();
    s.active = std::make_unique<ServingEngine>(
        cfg, proto.gazeEstimator(), *s.ren);
    s.ctor_s = msBetween(c0, Clock::now()) / 1e3;
    if (sc.checkpoint_every_us > 0)
        s.standby = std::make_unique<ServingEngine>(
            cfg, proto.gazeEstimator(), *s.ren);
    s.pristine = s.active->saveSnapshot();
    return s;
}

/** Everything one replay pass produces. */
struct PassResult
{
    FleetMetrics fleet;
    std::string signature;      ///< Serialized fleet + session metrics.
    double host_ms = 0.0;       ///< Replay wall time (checks excluded).
    long trace_frames = 0;      ///< Frames in the scripted trace.
    long rejected_frames = 0;   ///< Frames of rejected sessions.
    long errors = 0;            ///< Typed errors from engine calls.
    long gaze_emitted = 0;
    long gaze_nonfinite = 0;
    long gaze_log_mismatch = 0; ///< gaze_error workloads: 1:1 broken.
    double gaze_error_sum = 0.0;
    std::vector<double> save_ms, restore_ms;
    long checkpoints = 0;
    long checkpoint_mismatches = 0;
    long long snapshot_bytes = 0;
    std::vector<double> tick_ms; ///< Traced: host ms per tick.
};

/** One replay of the trace; @p ref, if given, times its steps. */
PassResult
runPass(ServeSetup &s, const Scenario &sc, Tracer &t, long pass,
        ReferenceSteps *ref)
{
    PassResult out;
    if (!s.active->restoreSnapshot(s.pristine).isOk())
        ++out.errors;
    const long long tick_us = s.active->config().tick_us;
    long long next_tick = 0; // Mirrors the engine's tick cursor.
    double verify_ms = 0.0;

    const auto advance = [&](long long target) {
        long ticks = 0;
        while (next_tick <= target) {
            next_tick += tick_us;
            ++ticks;
        }
        const int id = t.begin("serve.advanceTo", pass);
        s.active->advanceTo(target);
        t.end(id);
        if (id >= 0 && ticks > 0) {
            const Tracer::Span &sp = t.spans()[size_t(id)];
            out.tick_ms.push_back((sp.end_ms - sp.start_ms) /
                                  double(ticks));
        }
    };
    const auto checkpoint = [&]() {
        const Clock::time_point c0 = Clock::now();
        std::vector<uint8_t> bytes;
        {
            Tracer::Scope span(t, "serve.saveSnapshot", pass);
            bytes = s.active->saveSnapshot();
        }
        const Clock::time_point c1 = Clock::now();
        Status st;
        {
            Tracer::Scope span(t, "serve.restoreSnapshot", pass);
            st = s.standby->restoreSnapshot(bytes);
        }
        const Clock::time_point c2 = Clock::now();
        out.save_ms.push_back(msBetween(c0, c1));
        out.restore_ms.push_back(msBetween(c1, c2));
        // Check (untimed): the restored engine saves the same bytes.
        const bool same = st.isOk() && s.standby->saveSnapshot() == bytes;
        verify_ms += msBetween(c2, Clock::now());
        out.checkpoint_mismatches += same ? 0 : 1;
        out.snapshot_bytes =
            std::max(out.snapshot_bytes, (long long)bytes.size());
        ++out.checkpoints;
        std::swap(s.active, s.standby);
    };

    std::vector<int> ids(s.traffic.size(), -1);
    long long next_checkpoint = sc.checkpoint_every_us;
    double drain_ms = 0.0;
    if (ref != nullptr)
        ref->beginPass(s.events.size() + 1); // Events, then the drain.
    const Clock::time_point p0 = Clock::now();
    {
        Tracer::Scope pass_span(t, "pass", pass);
        for (const Event &ev : s.events) {
            const Clock::time_point s0 = Clock::now();
            const double verify_before = verify_ms;
            while (next_checkpoint > 0 && ev.t >= next_checkpoint) {
                advance(next_checkpoint);
                checkpoint();
                next_checkpoint += sc.checkpoint_every_us;
            }
            advance(ev.t);
            if (ev.kind == 0) {
                Tracer::Scope span(t, "serve.openSession", pass);
                const Result<int> r = s.active->openSession();
                if (r.ok())
                    ids[size_t(ev.trace)] = r.value();
            } else if (ids[size_t(ev.trace)] >= 0) {
                Tracer::Scope span(t, "serve.submitFrame", ev.frame);
                const Status st = s.active->submitFrame(
                    ids[size_t(ev.trace)],
                    s.traffic[size_t(ev.trace)].frames[size_t(ev.frame)]);
                out.errors += st.isOk() ? 0 : 1;
            } else {
                ++out.rejected_frames;
            }
            if (ref != nullptr)
                ref->step(msBetween(s0, Clock::now()) -
                          (verify_ms - verify_before));
        }
        const Clock::time_point d0 = Clock::now();
        Tracer::Scope span(t, "serve.drain", pass);
        s.active->drain();
        drain_ms = msBetween(d0, Clock::now());
    }
    out.host_ms = msBetween(p0, Clock::now()) - verify_ms;
    if (ref != nullptr) {
        out.host_ms -= ref->calibratingMs();
        ref->step(drain_ms);
        ref->endPass();
    }

    const ServingEngine &eng = *s.active;
    out.fleet = eng.fleetMetrics();
    PerfJson json;
    eng.exportMetrics(json, "serve");
    out.signature = json.serialize();
    for (const SessionTraffic &st : s.traffic)
        out.trace_frames += long(st.frames.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] < 0)
            continue;
        const auto &log = eng.sessionGazeLog(ids[i]);
        const auto &frames = s.traffic[i].frames;
        out.gaze_emitted += long(log.size());
        for (const dataset::GazeVec &g : log)
            out.gaze_nonfinite += isFinite(g) ? 0 : 1;
        if (!sc.gaze_error)
            continue;
        if (log.size() != frames.size()) {
            ++out.gaze_log_mismatch;
            continue;
        }
        for (size_t f = 0; f < log.size(); ++f)
            out.gaze_error_sum += dataset::angularErrorDeg(
                log[f], dataset::anglesToVector(frames[f].params.yaw_deg,
                                                frames[f].params.pitch_deg));
    }
    return out;
}

/** Time the layers the engine calls internally on this trace's frames. */
void
sampleLayers(const ServeSetup &s, Tracer &t)
{
    const eyetrack::ClassicalSegmenter seg(
        s.active->config().system.pipeline.segmenter);
    long total = 0;
    for (const SessionTraffic &st : s.traffic)
        total += long(st.frames.size());
    dataset::EyeSample sample;
    for (int k = 0; k < kLayerSamples; ++k) {
        const long idx = long(k) * total / kLayerSamples;
        const SessionTraffic &st =
            s.traffic[size_t(idx) % s.traffic.size()];
        const FrameTicket &ticket =
            st.frames[size_t(idx / long(s.traffic.size())) %
                      st.frames.size()];
        {
            Tracer::Scope span(t, "dataset.render", k);
            s.ren->renderInto(ticket.params, mixSeed(st.user_seed, k),
                              &sample);
        }
        Tracer::Scope span(t, "eyetrack.segment", k);
        const dataset::SegMask mask =
            seg.segment(ImageConstView::of(sample.image));
        (void)mask;
    }
}

void
runServe(const Scenario &sc, const Options &opt, Report &report)
{
    std::vector<double> setup_s, ctor_s;
    ServeSetup s;
    const int setups = opt.quick ? 1 : 3;
    for (int i = 0; i < setups; ++i) {
        s = ServeSetup(); // Release the previous engines first.
        setup_s.push_back(referenceMs([&] { s = setUp(sc, opt); }) / 1e3);
        ctor_s.push_back(s.ctor_s);
    }
    report.set("setup_s", median(setup_s), "s", Kind::Host,
               long(setup_s.size()));
    report.set("serve.engine_ctor_s", median(ctor_s), "s", Kind::Host,
               long(ctor_s.size()));
    report.check("serve.hooks_count_allocations", 1,
                 AllocCounter::hooksInstalled() ? 0 : 1);

    const double share = opt.trace ? 0.5 : 1.0;
    long passes = 0, repeat_failures = 0;
    std::vector<double> pass_ms, save_ms, restore_ms, ck_ms;
    ReferenceSteps ref;
    std::optional<PassResult> first;
    Tracer off(false);

    const auto account = [&](const PassResult &r) {
        const FleetMetrics &f = r.fleet;
        const long long buckets =
            f.drops_backpressure + f.drops_shed_on_close +
            f.drops_rate_downgrade + f.drops_failover;
        const bool balanced = f.submitted == f.completed + f.queue_drops &&
                              f.queue_drops == buckets;
        report.check("serve.accounting_identity", 1, balanced ? 0 : 1);
        report.check("serve.gaze_finite", r.gaze_emitted,
                     r.gaze_nonfinite);
        if (sc.gaze_error)
            report.check("serve.gaze_log_matches_frames",
                         long(r.fleet.sessions_opened),
                         r.gaze_log_mismatch);
        if (sc.checkpoint_every_us > 0)
            report.check("serve.checkpoint_save_restore_save_identical",
                         r.checkpoints, r.checkpoint_mismatches);
        // The benchmark's operations: every scripted frame plus every
        // checkpoint; errors returned by the engine fail them.
        report.operations(r.trace_frames + r.checkpoints, r.errors);
        report.shed(f.queue_drops + f.deadline_misses + f.pipeline_drops +
                    r.rejected_frames);
    };

    const Phase phase(opt, share);
    do {
        PassResult r = runPass(s, sc, off, passes, &ref);
        account(r);
        pass_ms.push_back(r.host_ms);
        for (size_t i = 0; i < r.save_ms.size(); ++i) {
            save_ms.push_back(r.save_ms[i]);
            restore_ms.push_back(r.restore_ms[i]);
            ck_ms.push_back(r.save_ms[i] + r.restore_ms[i]);
        }
        if (!first)
            first = std::move(r);
        else if (r.signature != first->signature)
            ++repeat_failures;
        ++passes;
    } while (phase.another(pass_ms.back()));
    report.check("serve.passes_repeat_exactly", passes, repeat_failures);

    const FleetMetrics &f = first->fleet;
    report.set("host_fps", double(f.completed) * 1e3 / ref.passMs(),
               "frames/s", Kind::Host, passes);
    report.set("modeled_latency_us_p50", f.p50_latency_us, "us",
               Kind::Modeled, long(f.completed));
    report.set("modeled_latency_us_p99", f.p99_latency_us, "us",
               Kind::Modeled, long(f.completed));
    report.set("modeled_fps", f.aggregate_fps, "FPS", Kind::Modeled);
    if (sc.gaze_error)
        report.set("gaze_error_deg",
                   first->gaze_error_sum / double(first->gaze_emitted),
                   "deg", Kind::Modeled, first->gaze_emitted);
    if (sc.checkpoint_every_us > 0) {
        report.set("checkpoint_ms_p50", median(ck_ms), "ms", Kind::Host,
                   long(ck_ms.size()));
        report.set("serve.snapshot_save_ms_p50", median(save_ms), "ms",
                   Kind::Host, long(save_ms.size()));
        report.set("serve.snapshot_restore_ms_p50", median(restore_ms),
                   "ms", Kind::Host, long(restore_ms.size()));
        report.set("serve.snapshot_bytes", double(first->snapshot_bytes),
                   "bytes", Kind::Count);
    }
    report.set("serve.chip_utilization", f.backend_utilization, "ratio",
               Kind::Modeled);
    report.set("serve.deadline_misses", double(f.deadline_misses),
               "count", Kind::Count);
    report.set("serve.drops_backpressure", double(f.drops_backpressure),
               "count", Kind::Count);
    report.set("serve.drops_rate_downgrade",
               double(f.drops_rate_downgrade), "count", Kind::Count);
    report.set("serve.drops_failover", double(f.drops_failover), "count",
               Kind::Count);
    report.set("serve.drops_shed_on_close", double(f.drops_shed_on_close),
               "count", Kind::Count);
    report.set("serve.redispatched_frames", double(f.redispatched_frames),
               "count", Kind::Count);
    report.set("serve.degraded_res_frames", double(f.degraded_res_frames),
               "count", Kind::Count);
    for (int tier = 0; tier <= kNumDegradationTiers; ++tier)
        report.set("serve.tier_ticks_" + std::to_string(tier),
                   double(f.tier_residency[tier]), "count", Kind::Count);
    report.set("serve.steady_allocs_per_frame",
               double(f.steady_allocs) /
                   double(std::max(1LL, f.steady_frames)),
               "count", Kind::Count);
    report.set("serve.peak_arena_bytes", double(f.peak_arena_bytes),
               "bytes", Kind::Count);
    report.set("eyetrack.segment_calls_per_frame",
               double(f.refresh_frames) /
                   double(std::max(1LL, f.refresh_frames + f.steady_frames)),
               "ratio", Kind::Count);
    if (!opt.trace)
        return;

    // --- Traced phase: one span per engine call.
    Tracer t(true);
    std::vector<double> tick_ms, traced_ms;
    long traced = 0, traced_mismatch = 0;
    const Phase tphase(opt, share);
    do {
        PassResult r = runPass(s, sc, t, traced, nullptr);
        account(r);
        traced_mismatch += r.signature == first->signature ? 0 : 1;
        tick_ms.insert(tick_ms.end(), r.tick_ms.begin(), r.tick_ms.end());
        traced_ms.push_back(r.host_ms);
        sampleLayers(s, t);
        ++traced;
    } while (tphase.another(traced_ms.back()));
    report.check("serve.traced_passes_match_untraced", traced,
                 traced_mismatch);

    report.set("serve.advance_ms_p50", median(tick_ms), "ms", Kind::Host,
               long(tick_ms.size()));
    report.set("serve.advance_ms_p99", quantile(tick_ms, 0.99), "ms",
               Kind::Host, long(tick_ms.size()));
    t.printSummary();
    const auto p50 = [&](const char *name) {
        return median(t.durations(name));
    };
    report.set("dataset.render_ms_p50", p50("dataset.render"), "ms",
               Kind::Host, long(t.durations("dataset.render").size()));
    report.set("eyetrack.segment_ms_p50", p50("eyetrack.segment"), "ms",
               Kind::Host, long(t.durations("eyetrack.segment").size()));
    report.set("trace.coverage", t.childMs("pass") / t.totalMs("pass"),
               "ratio", Kind::Host);
    report.set("trace.overhead_ratio",
               (sum(traced_ms) / double(traced)) /
                       (sum(pass_ms) / double(passes)) - 1.0,
               "ratio", Kind::Host);
}

} // namespace

void
runServeSteady(const Options &opt, Report &report)
{
    runServe(steadyScenario(), opt, report);
}

void
runServeChaos(const Options &opt, Report &report)
{
    runServe(chaosScenario(), opt, report);
}

} // namespace perfbench
