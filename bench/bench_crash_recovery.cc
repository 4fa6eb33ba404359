/**
 * @file
 * Crash-recovery soak: snapshot-cadence vs recovery-latency sweep
 * over the chaos serving scenario (DESIGN.md section 13).
 *
 * A 16-session / 4-chip soak runs with chip 1 killed mid-run. For
 * each snapshot cadence the engine is driven to a fixed crash point
 * while checkpointing on the cadence grid; the "crashed" engine is
 * discarded, the last snapshot is restored into a fresh engine, the
 * lost input suffix is replayed from the co-persisted driver cursor,
 * and the run finishes. Recovery latency = restore wall time +
 * replay-to-crash-point wall time; tighter cadences pay more save
 * overhead during the run and less replay at recovery.
 *
 * Acceptance gates (exit code):
 *  - every resumed run is **bitwise identical** (gaze streams, drop
 *    logs, completion log, serialized metrics) to the uninterrupted
 *    reference, at every cadence;
 *  - the crash point is state-rich: the chip outage has happened by
 *    then, so the snapshot carries failover state;
 *  - a corrupted snapshot (single bit flip) fails restore with a
 *    typed CorruptSnapshot error, never a crash;
 *  - snapshots are non-trivial (> 1 KB) and save/restore both
 *    complete in bounded wall time.
 *
 * Results merge into BENCH_recovery.json (override the path with the
 * first positional argument). --quick shrinks the soak for sanitizer
 * CI runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/stats.h"
#include "serve/engine.h"

using namespace eyecod;
using namespace eyecod::serve;

namespace {

double
wallUs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

core::SystemConfig
benchSystem()
{
    core::SystemConfig sys;
    sys.pipeline.camera = eyetrack::CameraKind::Lens;
    sys.pipeline.roi_refresh = 25;
    return sys;
}

/** One traffic event in runTrace's deterministic order. */
struct FlatEvent
{
    long long t = 0;
    int kind = 0; ///< 0 = join, 1 = frame, 2 = leave.
    int trace = 0;
    long frame = 0;
};

std::vector<FlatEvent>
flattenTrace(const std::vector<SessionTraffic> &traffic)
{
    std::vector<FlatEvent> events;
    for (size_t i = 0; i < traffic.size(); ++i) {
        events.push_back(FlatEvent{traffic[i].join_us, 0, int(i), 0});
        for (size_t f = 0; f < traffic[i].frames.size(); ++f)
            events.push_back(
                FlatEvent{traffic[i].frames[f].arrival_us, 1, int(i),
                          long(f)});
        if (traffic[i].leave_us >= 0)
            events.push_back(
                FlatEvent{traffic[i].leave_us, 2, int(i), 0});
    }
    std::sort(events.begin(), events.end(),
              [](const FlatEvent &a, const FlatEvent &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.frame < b.frame;
              });
    return events;
}

/** Client-side cursor persisted alongside each engine snapshot. */
struct DriverState
{
    std::vector<int> ids;
    size_t next = 0;
};

/** Apply every event with t <= @p until, in order (runTrace logic). */
void
applyEventsUpTo(ServingEngine &eng,
                const std::vector<SessionTraffic> &traffic,
                const std::vector<FlatEvent> &events, DriverState &st,
                long long until)
{
    if (st.ids.empty())
        st.ids.assign(traffic.size(), -1);
    while (st.next < events.size() && events[st.next].t <= until) {
        const FlatEvent &ev = events[st.next];
        ++st.next;
        eng.advanceTo(ev.t);
        if (ev.kind == 0) {
            const Result<int> r = eng.openSession();
            if (r.ok())
                st.ids[size_t(ev.trace)] = r.value();
        } else if (ev.kind == 1 && st.ids[size_t(ev.trace)] >= 0) {
            (void)eng.submitFrame(
                st.ids[size_t(ev.trace)],
                traffic[size_t(ev.trace)].frames[size_t(ev.frame)]);
        } else if (ev.kind == 2 && st.ids[size_t(ev.trace)] >= 0) {
            (void)eng.closeSession(st.ids[size_t(ev.trace)]);
            st.ids[size_t(ev.trace)] = -1;
        }
    }
    eng.advanceTo(until);
}

void
finishTrace(ServingEngine &eng,
            const std::vector<SessionTraffic> &traffic,
            const std::vector<FlatEvent> &events, DriverState &st)
{
    if (!events.empty())
        applyEventsUpTo(eng, traffic, events, st, events.back().t);
    eng.drain();
}

/** Every observable output folded into one byte string. */
std::string
engineSignature(const ServingEngine &eng)
{
    std::string sig;
    char buf[160];
    for (int s = 0; s < eng.sessionCount(); ++s) {
        for (const dataset::GazeVec &g : eng.sessionGazeLog(s)) {
            std::snprintf(buf, sizeof(buf), "%a,%a,%a;", g[0], g[1],
                          g[2]);
            sig += buf;
        }
        for (const DropRecord &d : eng.sessionMetrics(s).drop_log) {
            std::snprintf(buf, sizeof(buf), "d%ld@%lld/%lld:%s;",
                          d.frame_index, d.arrival_us, d.dropped_us,
                          dropReasonName(d.reason));
            sig += buf;
        }
    }
    for (const CompletionRecord &c : eng.completionLog()) {
        std::snprintf(buf, sizeof(buf), "c%d:%ld@%lld->%lld%s%s;",
                      c.session, c.frame_index, c.arrival_us,
                      c.completion_us, c.redispatched ? "R" : "",
                      c.deadline_miss ? "M" : "");
        sig += buf;
    }
    PerfJson json;
    eng.exportMetrics(json, "serving");
    sig += json.serialize();
    return sig;
}

/** Per-cadence sweep result. */
struct CadenceResult
{
    long long cadence_us = 0;
    long long snapshots = 0;
    double snapshot_bytes = 0; ///< Size of the snapshot restored.
    double save_total_us = 0;  ///< Checkpoint overhead over the run.
    double restore_us = 0;
    double replay_us = 0; ///< Re-applying the lost input suffix.
    bool identical = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path = "BENCH_recovery.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            json_path = argv[i];
    }
    PerfJson json = PerfJson::load(json_path);

    const int sessions = 16;
    const int chips = 4;
    const long frames = quick ? 120 : 360;
    const long long t_fail = 156000;
    const long long t_rejoin = 306000;
    // Crash inside the outage window: the snapshot under test holds
    // retry/backoff and ladder state, not just steady-state counters.
    // Deliberately off every cadence grid (a tick multiple, but not a
    // cadence multiple) so each cadence pays a real replay suffix.
    const long long t_kill = 203000;

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
    cfg.scheduler_threads = 1;
    cfg.record_gaze = true;
    cfg.record_completions = true;
    cfg.failover.chip_faults = {
        ChipFaultEvent{t_fail, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{t_rejoin, 1, ChipEventKind::Rejoin, 0},
    };

    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = frames;
    const std::vector<SessionTraffic> traffic = makeTraffic(ren, tc);
    const std::vector<FlatEvent> events = flattenTrace(traffic);

    // --- Uninterrupted reference run.
    const auto ref_t0 = std::chrono::steady_clock::now();
    ServingEngine ref(cfg, trained, ren);
    DriverState ref_state;
    finishTrace(ref, traffic, events, ref_state);
    const double baseline_us = wallUs(ref_t0);
    const std::string want = engineSignature(ref);

    // --- Cadence sweep. Cadences are tick_us multiples: checkpoint
    // points must land on the scheduler's state-neutral tick grid.
    const std::vector<long long> cadences =
        quick ? std::vector<long long>{7000, 23000, 47000}
              : std::vector<long long>{3000, 7000, 13000, 23000,
                                       47000};
    std::vector<CadenceResult> results;
    bool crash_state_rich = false;
    for (long long cadence : cadences) {
        CadenceResult cr;
        cr.cadence_us = cadence;

        // Drive to the crash point, checkpointing on the grid. Only
        // the newest snapshot is retained (as a real sidecar would).
        ServingEngine victim(cfg, trained, ren);
        DriverState victim_state;
        std::vector<uint8_t> snapshot;
        DriverState snapshot_state;
        long long t_snap = 0;
        for (long long t = cadence; t <= t_kill; t += cadence) {
            applyEventsUpTo(victim, traffic, events, victim_state, t);
            const auto s0 = std::chrono::steady_clock::now();
            snapshot = victim.saveSnapshot();
            cr.save_total_us += wallUs(s0);
            snapshot_state = victim_state;
            t_snap = t;
            ++cr.snapshots;
        }
        applyEventsUpTo(victim, traffic, events, victim_state,
                        t_kill);
        crash_state_rich = crash_state_rich ||
                           victim.fleetMetrics().chip_failures > 0;
        cr.snapshot_bytes = double(snapshot.size());
        // Crash: the victim (and everything since t_snap) is gone.

        ServingEngine resumed(cfg, trained, ren);
        const auto r0 = std::chrono::steady_clock::now();
        const Status restored = resumed.restoreSnapshot(snapshot);
        cr.restore_us = wallUs(r0);
        if (!restored.isOk()) {
            std::fprintf(stderr, "restore at cadence %lld: %s\n",
                         cadence, restored.toString().c_str());
            return 1;
        }
        DriverState resumed_state = snapshot_state;
        const auto p0 = std::chrono::steady_clock::now();
        applyEventsUpTo(resumed, traffic, events, resumed_state,
                        t_kill);
        cr.replay_us = wallUs(p0);
        finishTrace(resumed, traffic, events, resumed_state);
        cr.identical = engineSignature(resumed) == want;
        (void)t_snap;
        results.push_back(cr);
    }

    // --- Hostile input: one flipped bit must be a typed error.
    ServingEngine probe(cfg, trained, ren);
    DriverState probe_state;
    applyEventsUpTo(probe, traffic, events, probe_state, t_kill);
    std::vector<uint8_t> mutant = probe.saveSnapshot();
    mutant[mutant.size() / 2] ^= 0x10u;
    const Status corrupt =
        ServingEngine(cfg, trained, ren).restoreSnapshot(mutant);
    const bool corrupt_typed =
        !corrupt.isOk() &&
        corrupt.code() == ErrorCode::CorruptSnapshot;

    // --- Gates + report.
    bool all_identical = true;
    bool snapshots_nontrivial = true;
    TextTable t({"cadence us", "snaps", "bytes", "save tot us",
                 "restore us", "replay us", "recovery us",
                 "identical"});
    for (const CadenceResult &cr : results) {
        all_identical = all_identical && cr.identical;
        snapshots_nontrivial =
            snapshots_nontrivial && cr.snapshot_bytes > 1024.0;
        t.addRow({std::to_string(cr.cadence_us),
                  std::to_string(cr.snapshots),
                  formatDouble(cr.snapshot_bytes, 0),
                  formatDouble(cr.save_total_us, 0),
                  formatDouble(cr.restore_us, 0),
                  formatDouble(cr.replay_us, 0),
                  formatDouble(cr.restore_us + cr.replay_us, 0),
                  cr.identical ? "yes" : "NO"});

        char key[64];
        std::snprintf(key, sizeof(key), "cadence_%lld_snapshots",
                      cr.cadence_us);
        json.set("recovery", key, double(cr.snapshots));
        std::snprintf(key, sizeof(key), "cadence_%lld_snapshot_bytes",
                      cr.cadence_us);
        json.set("recovery", key, cr.snapshot_bytes);
        std::snprintf(key, sizeof(key), "cadence_%lld_save_total_us",
                      cr.cadence_us);
        json.set("recovery", key, cr.save_total_us);
        std::snprintf(key, sizeof(key), "cadence_%lld_restore_us",
                      cr.cadence_us);
        json.set("recovery", key, cr.restore_us);
        std::snprintf(key, sizeof(key), "cadence_%lld_replay_us",
                      cr.cadence_us);
        json.set("recovery", key, cr.replay_us);
        std::snprintf(key, sizeof(key), "cadence_%lld_recovery_us",
                      cr.cadence_us);
        json.set("recovery", key, cr.restore_us + cr.replay_us);
    }

    json.set("recovery", "sessions", double(sessions));
    json.set("recovery", "chips", double(chips));
    json.set("recovery", "frames_per_session", double(frames));
    json.set("recovery", "kill_us", double(t_kill));
    json.set("recovery", "baseline_wall_us", baseline_us);

    json.set("acceptance", "bitwise_identity_all_cadences",
             all_identical ? 1.0 : 0.0);
    json.set("acceptance", "crash_state_rich", crash_state_rich ? 1.0 : 0.0);
    json.set("acceptance", "corrupt_snapshot_typed_error",
             corrupt_typed ? 1.0 : 0.0);
    json.set("acceptance", "snapshots_nontrivial",
             snapshots_nontrivial ? 1.0 : 0.0);
    json.set("acceptance", "quick_mode", quick ? 1.0 : 0.0);

    const bool all_ok = all_identical && crash_state_rich &&
                        corrupt_typed && snapshots_nontrivial;
    std::printf(
        "=== Crash-recovery soak (%d sessions, %d chips, %ld "
        "frames/user%s) ===\n"
        "chip 1 killed at %lldus, engine crash at %lldus, baseline "
        "run %.0fus wall\n"
        "%s\n"
        "gates: bitwise-identity=%s crash-state-rich=%s "
        "corrupt-typed-error=%s snapshots-nontrivial=%s\n"
        "overall: %s — results merged into %s\n",
        sessions, chips, frames, quick ? ", --quick" : "", t_fail,
        t_kill, baseline_us, t.render().c_str(),
        all_identical ? "ok" : "FAIL",
        crash_state_rich ? "ok" : "FAIL",
        corrupt_typed ? "ok" : "FAIL",
        snapshots_nontrivial ? "ok" : "FAIL",
        all_ok ? "PASS" : "FAIL", json_path.c_str());
    json.write(json_path);
    return all_ok ? 0 : 1;
}
