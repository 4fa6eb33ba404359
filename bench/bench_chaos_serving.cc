/**
 * @file
 * Chaos soak of the serving engine: 16 user sessions on 4 virtual
 * chips, with chip 1 killed mid-run and rejoining later. The run
 * exercises the whole failover stack — in-flight batch re-dispatch
 * with bounded backoff, the four-tier degradation ladder riding the
 * capacity loss up and back down, and per-reason drop accounting —
 * and everything stays in virtual time, so the soak is bitwise
 * replayable at any scheduler thread count.
 *
 * Acceptance gates (exit code):
 *  - zero session terminations: the outage closes no session and
 *    every admitted session survives to the drain;
 *  - every emitted gaze vector is finite (degraded-resolution frames
 *    included);
 *  - the kill is actually exercised: one chip failure, one rejoin,
 *    and at least one re-dispatched completion;
 *  - p99 latency recovery: completions later than one ROI-refresh
 *    window (roi_refresh * frame_interval) after the rejoin show
 *    p99 <= 1.5x the pre-fault p99;
 *  - the ladder engages during the outage and returns to tier 0 by
 *    the end of the run;
 *  - accounting identity: submitted == completed + queue_drops, and
 *    queue_drops partitions exactly into the per-reason buckets;
 *  - a chaos schedule generated at zero fault rates is empty and the
 *    engine under it is bitwise identical (gaze streams + serialized
 *    metrics) to a clean engine.
 *
 * Results merge into BENCH_chaos.json (override the path with the
 * first positional argument). --quick shrinks the soak for sanitizer
 * CI runs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/stats.h"
#include "serve/engine.h"

using namespace eyecod;
using namespace eyecod::serve;

namespace {

core::SystemConfig
benchSystem()
{
    core::SystemConfig sys;
    sys.pipeline.camera = eyetrack::CameraKind::Lens;
    sys.pipeline.roi_refresh = 25;
    return sys;
}

/** Observable signature of a run: gaze streams + metrics JSON. */
std::string
runSignature(const ServingConfig &cfg,
             const eyetrack::RidgeGazeEstimator &trained,
             const dataset::SyntheticEyeRenderer &ren,
             const TrafficConfig &tc)
{
    ServingEngine eng(cfg, trained, ren);
    eng.runTrace(makeTraffic(ren, tc));
    std::string sig;
    char buf[96];
    for (int s = 0; s < eng.sessionCount(); ++s)
        for (const dataset::GazeVec &g : eng.sessionGazeLog(s)) {
            std::snprintf(buf, sizeof(buf), "%a,%a,%a;", g[0], g[1],
                          g[2]);
            sig += buf;
        }
    PerfJson json;
    eng.exportMetrics(json, "serving");
    sig += json.serialize();
    return sig;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path = "BENCH_chaos.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            json_path = argv[i];
    }
    PerfJson json = PerfJson::load(json_path);

    const int sessions = 16;
    const int chips = 4;
    const long frames = quick ? 120 : 480;
    // 156000 lands mid-batch on chip 1 (its in-flight frames get
    // re-dispatched); traffic is a pure function of the seed, so the
    // outage window behaves identically in quick and full runs.
    const long long t_fail = 156000;
    const long long t_rejoin = 306000;

    const core::SystemConfig sys = benchSystem();
    dataset::RenderConfig rc;
    rc.image_size = sys.pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);

    eyetrack::PredictThenFocusPipeline proto(sys.pipeline);
    proto.trainGaze(ren, 200);
    const eyetrack::RidgeGazeEstimator &trained =
        proto.gazeEstimator();

    ServingConfig cfg;
    cfg.system = sys;
    cfg.virtual_chips = chips;
    cfg.scheduler_threads = 0; // hardware concurrency
    cfg.record_gaze = true;
    cfg.record_completions = true;
    cfg.failover.chip_faults = {
        ChipFaultEvent{t_fail, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{t_rejoin, 1, ChipEventKind::Rejoin, 0},
    };

    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = frames;

    ServingEngine eng(cfg, trained, ren);
    const FleetMetrics f = eng.runTrace(makeTraffic(ren, tc));

    // --- Windowed p99: before the kill, during the outage, and past
    // one ROI-refresh window after the rejoin.
    const long long refresh_window_us =
        (long long)(sys.pipeline.roi_refresh) * cfg.frame_interval_us;
    std::vector<double> pre, outage, recovered;
    for (const CompletionRecord &c : eng.completionLog()) {
        if (c.completion_us < t_fail)
            pre.push_back(c.latency_us);
        else if (c.completion_us < t_rejoin)
            outage.push_back(c.latency_us);
        else if (c.completion_us >= t_rejoin + refresh_window_us)
            recovered.push_back(c.latency_us);
    }
    const double pre_p99 = percentile(pre, 0.99);
    const double outage_p99 = percentile(outage, 0.99);
    const double recovered_p99 = percentile(recovered, 0.99);
    const double recovery_ratio =
        pre_p99 > 0.0 ? recovered_p99 / pre_p99 : 0.0;

    // --- Gates.
    const bool zero_terminations =
        f.sessions_closed == 0 && f.sessions_opened == sessions &&
        eng.activeSessions() == sessions;

    bool finite_gaze = true;
    long long gaze_vectors = 0;
    for (int s = 0; s < eng.sessionCount(); ++s)
        for (const dataset::GazeVec &g : eng.sessionGazeLog(s)) {
            ++gaze_vectors;
            finite_gaze = finite_gaze && std::isfinite(g[0]) &&
                          std::isfinite(g[1]) && std::isfinite(g[2]);
        }

    const bool kill_exercised = f.chip_failures == 1 &&
                                f.chip_rejoins == 1 &&
                                f.redispatched_frames > 0;
    const bool p99_recovered = pre_p99 > 0.0 &&
                               !recovered.empty() &&
                               recovered_p99 <= 1.5 * pre_p99;
    long long outage_tier_ticks = 0;
    for (int t = 1; t <= kNumDegradationTiers; ++t)
        outage_tier_ticks += f.tier_residency[t];
    const bool ladder_round_trip =
        outage_tier_ticks > 0 && f.degradation_tier == 0;
    const bool accounting_ok =
        f.submitted == f.completed + f.queue_drops &&
        f.queue_drops == f.drops_backpressure + f.drops_shed_on_close +
                             f.drops_rate_downgrade + f.drops_failover;

    // --- Zero-fault identity: a generated schedule at all-zero fault
    // rates is empty, and serving under it is bitwise identical to a
    // clean engine (shorter trace: identity needs no soak).
    ServingConfig clean = cfg;
    clean.failover.chip_faults.clear();
    clean.record_completions = false;
    ServingConfig zero_rate = clean;
    ChaosScheduleConfig cc; // all rates zero
    cc.horizon_us = 500000;
    zero_rate.failover.chip_faults =
        makeChipFaultSchedule(cc, sys.hw, chips);
    TrafficConfig id_tc = tc;
    id_tc.frames_per_session = std::min<long>(frames, 120);
    const bool zero_fault_identity =
        zero_rate.failover.chip_faults.empty() &&
        runSignature(clean, trained, ren, id_tc) ==
            runSignature(zero_rate, trained, ren, id_tc);

    // --- Report + JSON.
    TextTable t({"phase", "completions", "p99 us"});
    t.addRow({"pre-fault", std::to_string(pre.size()),
              formatDouble(pre_p99, 0)});
    t.addRow({"outage", std::to_string(outage.size()),
              formatDouble(outage_p99, 0)});
    t.addRow({"recovered", std::to_string(recovered.size()),
              formatDouble(recovered_p99, 0)});

    json.set("chaos", "sessions", double(sessions));
    json.set("chaos", "chips", double(chips));
    json.set("chaos", "frames_per_session", double(frames));
    json.set("chaos", "fail_us", double(t_fail));
    json.set("chaos", "rejoin_us", double(t_rejoin));
    json.set("chaos", "submitted", double(f.submitted));
    json.set("chaos", "completed", double(f.completed));
    json.set("chaos", "queue_drops", double(f.queue_drops));
    json.set("chaos", "drops_backpressure", double(f.drops_backpressure));
    json.set("chaos", "drops_shed_on_close", double(f.drops_shed_on_close));
    json.set("chaos", "drops_rate_downgrade", double(f.drops_rate_downgrade));
    json.set("chaos", "drops_failover", double(f.drops_failover));
    json.set("chaos", "deadline_misses", double(f.deadline_misses));
    json.set("chaos", "chip_failures", double(f.chip_failures));
    json.set("chaos", "chip_rejoins", double(f.chip_rejoins));
    json.set("chaos", "redispatched_frames", double(f.redispatched_frames));
    json.set("chaos", "degraded_res_frames", double(f.degraded_res_frames));
    json.set("chaos", "tier_transitions", double(f.tier_transitions));
    for (int tier = 0; tier <= kNumDegradationTiers; ++tier) {
        char key[40];
        std::snprintf(key, sizeof(key), "tier%d_residency_ticks",
                      tier);
        json.set("chaos", key, double(f.tier_residency[tier]));
    }
    json.set("chaos", "aggregate_fps", f.aggregate_fps);
    json.set("chaos", "p50_latency_us", f.p50_latency_us);
    json.set("chaos", "p99_latency_us", f.p99_latency_us);
    json.set("chaos", "p999_latency_us", f.p999_latency_us);
    json.set("chaos", "failover_p99_latency_us", f.failover_p99_latency_us);
    json.set("chaos", "pre_fault_p99_us", pre_p99);
    json.set("chaos", "outage_p99_us", outage_p99);
    json.set("chaos", "recovered_p99_us", recovered_p99);
    json.set("chaos", "recovery_ratio", recovery_ratio);
    json.set("chaos", "completion_log_dropped",
             double(eng.completionLogDropped()));

    json.set("acceptance", "zero_session_terminations",
             zero_terminations ? 1.0 : 0.0);
    json.set("acceptance", "finite_gaze", finite_gaze ? 1.0 : 0.0);
    json.set("acceptance", "chip_kill_exercised", kill_exercised ? 1.0 : 0.0);
    json.set("acceptance", "p99_recovery_within_refresh_window",
             p99_recovered ? 1.0 : 0.0);
    json.set("acceptance", "ladder_round_trip", ladder_round_trip ? 1.0 : 0.0);
    json.set("acceptance", "accounting_identity", accounting_ok ? 1.0 : 0.0);
    json.set("acceptance", "zero_fault_bitwise_identity",
             zero_fault_identity ? 1.0 : 0.0);
    json.set("acceptance", "quick_mode", quick ? 1.0 : 0.0);

    const bool all_ok = zero_terminations && finite_gaze &&
                        kill_exercised && p99_recovered &&
                        ladder_round_trip && accounting_ok &&
                        zero_fault_identity;
    std::printf(
        "=== Chaos serving soak (%d sessions, %d chips, %ld "
        "frames/user%s) ===\n"
        "chip 1 killed at %lldus, rejoined at %lldus "
        "(refresh window %lldus)\n"
        "%s\n"
        "completions: %lld of %lld submitted (%lld drops: %lld "
        "backpressure, %lld rate-downgrade, %lld failover), "
        "%lld re-dispatched, %lld served at reduced resolution\n"
        "tier residency (0..4): %lld %lld %lld %lld %lld ticks, "
        "%lld transitions, final tier %d\n"
        "gates: terminations=%s finite-gaze(%lld)=%s kill=%s "
        "p99-recovery(%.2fx<=1.5x)=%s ladder-round-trip=%s "
        "accounting=%s zero-fault-identity=%s\n"
        "overall: %s — results merged into %s\n",
        sessions, chips, frames, quick ? ", --quick" : "", t_fail,
        t_rejoin, refresh_window_us, t.render().c_str(), f.completed,
        f.submitted, f.queue_drops, f.drops_backpressure,
        f.drops_rate_downgrade, f.drops_failover,
        f.redispatched_frames, f.degraded_res_frames,
        f.tier_residency[0], f.tier_residency[1], f.tier_residency[2],
        f.tier_residency[3], f.tier_residency[4], f.tier_transitions,
        f.degradation_tier, zero_terminations ? "ok" : "FAIL",
        gaze_vectors, finite_gaze ? "ok" : "FAIL",
        kill_exercised ? "ok" : "FAIL", recovery_ratio,
        p99_recovered ? "ok" : "FAIL",
        ladder_round_trip ? "ok" : "FAIL",
        accounting_ok ? "ok" : "FAIL",
        zero_fault_identity ? "ok" : "FAIL",
        all_ok ? "PASS" : "FAIL", json_path.c_str());
    json.write(json_path);
    return all_ok ? 0 : 1;
}
