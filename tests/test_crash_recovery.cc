/**
 * @file
 * Crash-recovery tests of the serving engine's snapshot/restore
 * subsystem (DESIGN.md section 13): kill the engine at an arbitrary
 * virtual-time point — mid-batch, mid-failover-backoff, or with the
 * degradation ladder engaged — restore the snapshot into a fresh
 * engine, and prove the resumed run is **bitwise identical** to an
 * uninterrupted run, at 1 / 2 / 8 scheduler threads.
 *
 * Plus the hostile-input side: a deterministic truncation + bit-flip
 * sweep over a real snapshot must always produce a typed
 * CorruptSnapshot / VersionMismatch error — never a crash, hang, or
 * sanitizer finding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

/**
 * The trace flattened into the exact deterministic event order
 * ServingEngine::runTrace uses (joins before frames before leaves at
 * equal timestamps, then trace order), so a paused-and-resumed drive
 * interleaves events with scheduler ticks identically to runTrace.
 */
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

/**
 * Client-side driver state: which events were already applied and
 * the trace-index -> session-id admission map. A crashed client
 * persists this alongside the engine snapshot (it is the client's
 * state, not the engine's) — the harness copies it at the kill
 * point the same way.
 */
struct DriverState
{
    std::vector<int> ids;
    size_t next = 0;
};

/** Apply every event with t <= @p until, in order (runTrace logic). */
void
applyEventsUpTo(ServingEngine &eng,
                const std::vector<SessionTraffic> &traffic,
                const std::vector<FlatEvent> &events,
                DriverState &st, long long until)
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
            const Status s = eng.submitFrame(
                st.ids[size_t(ev.trace)],
                traffic[size_t(ev.trace)]
                    .frames[size_t(ev.frame)]);
            ASSERT_TRUE(s.isOk()) << s.toString();
        } else if (ev.kind == 2 && st.ids[size_t(ev.trace)] >= 0) {
            const Status s =
                eng.closeSession(st.ids[size_t(ev.trace)]);
            ASSERT_TRUE(s.isOk()) << s.toString();
            st.ids[size_t(ev.trace)] = -1;
        }
    }
    eng.advanceTo(until);
}

/** Apply every remaining event and drain the engine. */
void
finishTrace(ServingEngine &eng,
            const std::vector<SessionTraffic> &traffic,
            const std::vector<FlatEvent> &events, DriverState &st)
{
    if (!events.empty())
        applyEventsUpTo(eng, traffic, events, st,
                        events.back().t);
    eng.drain();
}

/**
 * Every observable output folded into one string: hex-exact gaze
 * streams, drop logs, serialized metrics JSON, and the completion
 * log when recorded. Byte equality of two signatures is the
 * "bitwise identical" claim of the recovery contract.
 */
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

void
expectSameSignature(const std::string &a, const std::string &b,
                    const char *what)
{
    if (a == b)
        return;
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    ADD_FAILURE() << what << ": signatures diverge at byte " << i
                  << ": " << a.substr(i, 48) << " vs "
                  << b.substr(i, 48);
}

/** Chaos config: chip 1 of 2 dies mid-run and rejoins, chip 0 loses
 *  lanes — the schedule from the serving-determinism chaos test. */
ServingConfig
chaosConfig(int threads)
{
    ServingConfig cfg = quickServingConfig(2, threads);
    cfg.record_gaze = true;
    cfg.failover.chip_faults = {
        ChipFaultEvent{34000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{40000, 0, ChipEventKind::RetireLanes, 16},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    return cfg;
}

TrafficConfig
chaosTraffic()
{
    TrafficConfig tc;
    tc.sessions = 12;
    tc.frames_per_session = 30;
    tc.churn_stagger_us = 2000;
    tc.leave_every = 3;
    return tc;
}

/**
 * Drive a fresh engine tick by tick until @p kill_when holds at or
 * after @p search_from (the "crash point") and return its snapshot,
 * with the driver state and virtual time at the kill. Empty when the
 * predicate never held before the horizon.
 */
std::vector<uint8_t>
killSnapshot(const ServingConfig &cfg,
             const std::vector<SessionTraffic> &traffic,
             const std::vector<FlatEvent> &events, long long search_from,
             const std::function<bool(const ServingEngine &)> &kill_when,
             DriverState *state, long long *now)
{
    const long long horizon =
        events.empty() ? 0 : events.back().t + 1000000;
    ServingEngine victim(cfg, servingTestEstimator(),
                         servingTestRenderer());
    for (long long t = cfg.tick_us; t <= horizon; t += cfg.tick_us) {
        applyEventsUpTo(victim, traffic, events, *state, t);
        if (t >= search_from && kill_when(victim)) {
            *now = victim.now();
            return victim.saveSnapshot();
        }
    }
    return {};
}

/**
 * Run the kill/restore experiment at one scheduler width:
 *
 *  A. drive the full trace uninterrupted -> reference signature;
 *  B. drive a second engine tick by tick until @p kill_when holds
 *     (the "crash point"), snapshot, and abandon it;
 *  C. restore the snapshot into a third, freshly-constructed engine
 *     and drive the *remaining* inputs -> resumed signature.
 *
 * Scheduler ticks are state-neutral pause points (advanceTo at a
 * tick boundary leaves exactly the state a longer advance passes
 * through), so A and B+C see identical event/tick interleavings and
 * the signatures must match byte for byte.
 */
void
runKillRestore(const ServingConfig &cfg, const TrafficConfig &tc,
               long long search_from,
               const std::function<bool(const ServingEngine &)>
                   &kill_when,
               const char *what)
{
    const std::vector<SessionTraffic> traffic =
        makeTraffic(servingTestRenderer(), tc);
    const std::vector<FlatEvent> events = flattenTrace(traffic);

    // A: uninterrupted reference.
    ServingEngine ref(cfg, servingTestEstimator(),
                      servingTestRenderer());
    DriverState ref_state;
    finishTrace(ref, traffic, events, ref_state);
    const std::string want = engineSignature(ref);

    // B: drive to the crash point and snapshot.
    DriverState victim_state;
    long long victim_now = -1;
    const std::vector<uint8_t> snapshot =
        killSnapshot(cfg, traffic, events, search_from, kill_when,
                     &victim_state, &victim_now);
    ASSERT_FALSE(snapshot.empty())
        << what << ": kill predicate never held before the horizon";

    // C: restore into a fresh engine and finish the trace.
    ServingEngine resumed(cfg, servingTestEstimator(),
                          servingTestRenderer());
    const Status restored = resumed.restoreSnapshot(snapshot);
    ASSERT_TRUE(restored.isOk()) << restored.toString();
    EXPECT_EQ(resumed.now(), victim_now);
    DriverState resumed_state = victim_state;
    finishTrace(resumed, traffic, events, resumed_state);
    expectSameSignature(want, engineSignature(resumed), what);
}

bool
anyChipMidBatch(const ServingEngine &eng)
{
    for (int c = 0; c < eng.pool().chips(); ++c)
        if (eng.pool().alive(c) &&
            eng.pool().busyUntil(c) > eng.now())
            return true;
    return false;
}

/** One kill point: engine shape, traffic, and the crash predicate. */
struct KillScenario
{
    ServingConfig cfg;
    TrafficConfig tc;
    long long search_from = 0;
    std::function<bool(const ServingEngine &)> kill_when;
    const char *what = "";
};

KillScenario
midBatchScenario(int threads)
{
    return {chaosConfig(threads), chaosTraffic(), 20000,
            anyChipMidBatch, "mid-batch kill"};
}

KillScenario
midBackoffScenario(int threads)
{
    // The chip-1 outage at t=34000 strands its in-flight frames in
    // the retry queue, where they wait out an exponential backoff;
    // the kill lands inside that window.
    return {chaosConfig(threads), chaosTraffic(), 34000,
            [](const ServingEngine &eng) {
                return eng.pendingRetries() > 0;
            },
            "mid-backoff kill"};
}

KillScenario
midLadderScenario(int threads)
{
    // One chip, eight users: sustained ~2x overload walks the
    // degradation ladder; the kill lands with tier >= 1 engaged.
    KillScenario sc;
    sc.cfg = quickServingConfig(1, threads);
    sc.cfg.record_gaze = true;
    sc.tc.sessions = 8;
    sc.tc.frames_per_session = 30;
    sc.kill_when = [](const ServingEngine &eng) {
        return eng.healthController().tier() >= 1;
    };
    sc.what = "mid-ladder kill";
    return sc;
}

KillScenario
flatCamScenario(int threads)
{
    // FlatCam sessions carry a sensor read/shot-noise RNG stream the
    // lens scenarios never exercise; the kill lands mid-batch.
    KillScenario sc{chaosConfig(threads), chaosTraffic(), 20000,
                    anyChipMidBatch, "flatcam mid-batch kill"};
    sc.cfg.system.pipeline.camera = eyetrack::CameraKind::FlatCam;
    sc.tc.sessions = 4;
    sc.tc.frames_per_session = 12;
    return sc;
}

void
runKillRestore(const KillScenario &sc)
{
    runKillRestore(sc.cfg, sc.tc, sc.search_from, sc.kill_when, sc.what);
}

/** The snapshot @p sc takes at its kill point. */
std::vector<uint8_t>
scenarioSnapshot(const KillScenario &sc)
{
    const std::vector<SessionTraffic> traffic =
        makeTraffic(servingTestRenderer(), sc.tc);
    DriverState state;
    long long now = -1;
    return killSnapshot(sc.cfg, traffic, flattenTrace(traffic),
                        sc.search_from, sc.kill_when, &state, &now);
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidBatch)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(midBatchScenario(threads));
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidBackoff)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(midBackoffScenario(threads));
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidLadder)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(midLadderScenario(threads));
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalFlatCamCamera)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(flatCamScenario(threads));
    }
}

TEST(CrashRecovery, CompletionLogSurvivesRestore)
{
    ServingConfig cfg = chaosConfig(1);
    cfg.record_completions = true;
    runKillRestore(cfg, chaosTraffic(), 20000, anyChipMidBatch,
                   "completion-log kill");
}

/** A small but state-rich snapshot for the hostile-input sweeps:
 *  killed mid-chaos, with retries pending and sessions churned. */
std::vector<uint8_t>
corpusSnapshot()
{
    const ServingConfig cfg = chaosConfig(1);
    const std::vector<SessionTraffic> traffic =
        makeTraffic(servingTestRenderer(), chaosTraffic());
    const std::vector<FlatEvent> events = flattenTrace(traffic);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    DriverState st;
    applyEventsUpTo(eng, traffic, events, st, 36000);
    return eng.saveSnapshot();
}

TEST(CrashRecoveryHardening, TruncationSweepYieldsTypedErrors)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    // Every prefix length with a deterministic stride (plus the
    // boundary-adjacent lengths) must fail with a typed error, never
    // crash: the seal catches all of them before any field decodes.
    for (size_t len = 0; len < snapshot.size();
         len += (len < 64 ? 1 : 499)) {
        std::vector<uint8_t> cut(snapshot.begin(),
                                 snapshot.begin() + long(len));
        const Status s = eng.restoreSnapshot(cut);
        ASSERT_FALSE(s.isOk()) << "prefix " << len << " decoded";
        ASSERT_TRUE(s.code() == ErrorCode::CorruptSnapshot ||
                    s.code() == ErrorCode::VersionMismatch)
            << "prefix " << len << ": " << s.toString();
    }
}

TEST(CrashRecoveryHardening, BitFlipSweepYieldsTypedErrors)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    // Deterministic single-bit-flip sweep: every 997th byte (and the
    // whole header region), all eight bits. The checksum seal turns
    // every flip into CorruptSnapshot before decoding starts.
    std::vector<uint8_t> mutant = snapshot;
    for (size_t byte = 0; byte < snapshot.size();
         byte += (byte < 16 ? 1 : 997)) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[byte] =
                uint8_t(snapshot[byte] ^ (1u << bit));
            const Status s = eng.restoreSnapshot(mutant);
            ASSERT_FALSE(s.isOk())
                << "flip " << byte << ":" << bit << " decoded";
            ASSERT_EQ(s.code(), ErrorCode::CorruptSnapshot)
                << "flip " << byte << ":" << bit << ": "
                << s.toString();
        }
        mutant[byte] = snapshot[byte];
    }
}

TEST(CrashRecoveryHardening, ForeignVersionIsVersionMismatch)
{
    // A well-formed snapshot from a *future* format version: bump
    // the version word and re-seal so the checksum passes and the
    // header check is actually reached.
    std::vector<uint8_t> future = corpusSnapshot();
    ASSERT_GE(future.size(), size_t(16));
    const uint32_t v = snap::kSnapshotVersion + 1;
    future[4] = uint8_t(v & 0xffu);
    future[5] = uint8_t((v >> 8) & 0xffu);
    future[6] = uint8_t((v >> 16) & 0xffu);
    future[7] = uint8_t((v >> 24) & 0xffu);
    const size_t payload = future.size() - 8;
    const uint64_t sum = snap::fnv1a(future.data(), payload);
    for (int i = 0; i < 8; ++i)
        future[payload + size_t(i)] =
            uint8_t((sum >> (8 * i)) & 0xffu);

    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const Status s = eng.restoreSnapshot(future);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::VersionMismatch)
        << s.toString();
}

TEST(CrashRecoveryHardening, WrongConfigurationIsTypedError)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    // Same trace, different fleet shape: 3 chips instead of 2.
    ServingConfig other = chaosConfig(1);
    other.virtual_chips = 3;
    ServingEngine eng(other, servingTestEstimator(),
                      servingTestRenderer());
    const Status s = eng.restoreSnapshot(snapshot);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot)
        << s.toString();
}

TEST(CrashRecoveryHardening, EmptyAndTinyBuffersAreTypedErrors)
{
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(8),
                     size_t(15)}) {
        const std::vector<uint8_t> junk(n, 0xab);
        const Status s = eng.restoreSnapshot(junk);
        ASSERT_FALSE(s.isOk()) << n << "-byte buffer decoded";
        EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot)
            << s.toString();
    }
}

TEST(CrashRecoveryHardening, SnapshotBytesMatchGoldens)
{
    // The wire format pinned byte for byte: FNV-1a-64 and length of
    // the hostile-input corpus and of the snapshot each kill scenario
    // takes at one scheduler thread. Any change to these is a format
    // change and needs a snapshot version bump.
    struct Golden
    {
        const char *name;
        std::vector<uint8_t> bytes;
        size_t size;
        uint64_t fnv;
    };
    const Golden goldens[] = {
        {"corpus", corpusSnapshot(), 824201, 0xaa61f42017f81459ull},
        {"mid-batch", scenarioSnapshot(midBatchScenario(1)), 689051,
         0x191bea5e7605bc12ull},
        {"mid-backoff", scenarioSnapshot(midBackoffScenario(1)), 823840,
         0x6e4172fd64ca2751ull},
        {"mid-ladder", scenarioSnapshot(midLadderScenario(1)), 549414,
         0xee7dc0212889c257ull},
        {"flatcam", scenarioSnapshot(flatCamScenario(1)), 301643,
         0xdb50b4a6db691474ull},
    };
    for (const Golden &g : goldens) {
        const uint64_t fnv = snap::fnv1a(g.bytes.data(), g.bytes.size());
        EXPECT_EQ(g.bytes.size(), g.size) << g.name;
        EXPECT_EQ(fnv, g.fnv) << g.name;
    }
}

/** splitmix64: the fuzz mutants' seeded position/bit stream. */
uint64_t
splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(CrashRecoveryHardening, ResealedMutantsDecodeTypedOrRoundTrip)
{
    // Structure-aware fuzz of the decoder behind the seal: flip 1-3
    // bits within 96 bytes after a component fence tag (where the
    // scalar fields, counts and flags live; uniform flips almost all
    // land in pixel data), then re-seal so the checksum passes and
    // the field decoders see the damage. Every mutant must decode to
    // OK or CorruptSnapshot; every mutant that decodes must re-encode
    // to exactly its own bytes. One engine absorbs every attempt, so
    // a failed restore must never poison a later successful one.
    const std::vector<uint8_t> corpus = corpusSnapshot();
    const size_t payload = corpus.size() - 8;
    const uint32_t tags[] = {0x454e4731, 0x53455331, 0x50495031,
                             0x53595331, 0x46515531, 0x41504c31,
                             0x48435431, 0x52535431, 0x53485431};
    std::vector<size_t> fences;
    for (size_t i = 0; i + 4 <= payload; ++i) {
        const uint32_t word = uint32_t(corpus[i]) |
                              uint32_t(corpus[i + 1]) << 8 |
                              uint32_t(corpus[i + 2]) << 16 |
                              uint32_t(corpus[i + 3]) << 24;
        if (std::find(std::begin(tags), std::end(tags), word) !=
            std::end(tags))
            fences.push_back(i);
    }
    ASSERT_EQ(fences.size(), size_t(76));

    ServingEngine eng(chaosConfig(1), servingTestEstimator(),
                      servingTestRenderer());
    uint64_t rng = 0x5eedf00dull;
    int decoded = 0;
    for (int m = 0; m < 500; ++m) {
        std::vector<uint8_t> mutant = corpus;
        const size_t fence = fences[splitmix64(&rng) % fences.size()];
        const int flips = 1 + int(splitmix64(&rng) % 3);
        for (int f = 0; f < flips; ++f) {
            const size_t at =
                std::min(payload - 1, fence + splitmix64(&rng) % 96);
            mutant[at] ^= uint8_t(1u << (splitmix64(&rng) % 8));
        }
        const uint64_t sum = snap::fnv1a(mutant.data(), payload);
        for (int i = 0; i < 8; ++i)
            mutant[payload + size_t(i)] =
                uint8_t((sum >> (8 * i)) & 0xffu);

        const Status s = eng.restoreSnapshot(mutant);
        if (!s.isOk()) {
            ASSERT_EQ(s.code(), ErrorCode::CorruptSnapshot)
                << "mutant " << m << ": " << s.toString();
            continue;
        }
        ++decoded;
        ASSERT_TRUE(eng.saveSnapshot() == mutant)
            << "mutant " << m << " decoded but re-encoded differently";
    }
    // Both outcomes must actually occur, or the sweep proves nothing.
    EXPECT_GT(decoded, 0);
    EXPECT_LT(decoded, 500);
}

} // namespace
} // namespace serve
} // namespace eyecod
