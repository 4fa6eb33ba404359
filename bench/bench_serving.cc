/**
 * @file
 * Multi-session serving benchmark: sweeps the fleet size (1 / 4 /
 * 16 / 64 users) against the number of virtual accelerator chips
 * (1 / 2 / 4) and reports, per cell, what the serving engine
 * admitted, completed, shed, and missed, plus aggregate FPS, chip
 * utilization, and latency percentiles.
 *
 * Acceptance gates (exit code):
 *  - throughput scaling: 16 sessions on 4 chips sustain >= 3x the
 *    aggregate FPS of 1 session on 4 chips (a single 240 FPS user
 *    cannot feed the fleet; the scheduler must batch across users);
 *  - zero deadline misses in every cell below saturation (admitted
 *    utilization < 0.7);
 *  - graceful overload above saturation: load is shed through typed
 *    admission rejections and/or bounded accounted queue drops
 *    (drop rate < 0.75), never through lost frames;
 *  - accounting identity in every cell after drain:
 *    submitted == completed + queue_drops, and queue_drops
 *    partitions exactly into the per-reason buckets (backpressure /
 *    shed-on-close / rate-downgrade / failover) that BENCH_serving
 *    .json now breaks out per cell.
 *
 * The binary is also the memory-spine auditor: it links the
 * operator new/delete counting hooks, classifies every served frame
 * as steady (gaze-only) or refresh (segmentation / drop handling),
 * and gates on zero heap allocations across all steady frames —
 * the zero-copy serving path's contract. The memory audit merges
 * into BENCH_memory.json (steady/refresh allocation counts and the
 * largest per-session arena footprint).
 *
 * Results print as a table and merge into BENCH_serving.json
 * (override the paths with positional arguments: first the serving
 * JSON, then the memory JSON). --quick shrinks the sweep for
 * sanitizer CI runs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
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

struct Cell
{
    int sessions = 0;
    int chips = 0;
    FleetMetrics fleet;
    double admitted_utilization = 0.0;
    bool accounting_ok = false;
};

Cell
runCell(int sessions, int chips, long frames,
        const eyetrack::RidgeGazeEstimator &trained,
        const dataset::SyntheticEyeRenderer &ren)
{
    ServingConfig cfg;
    cfg.system = benchSystem();
    cfg.virtual_chips = chips;
    cfg.scheduler_threads = 0; // hardware concurrency

    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = frames;

    ServingEngine eng(cfg, trained, ren);
    Cell cell;
    cell.sessions = sessions;
    cell.chips = chips;
    cell.fleet = eng.runTrace(makeTraffic(ren, tc));
    // Utilization the admitted fleet asks for (demand / capacity);
    // the saturation classification below keys off this.
    cell.admitted_utilization =
        double(cell.fleet.sessions_opened) *
        eng.serviceModel().amortized_frame_us /
        (double(cfg.frame_interval_us) * double(chips));
    // Two-part identity: every submitted frame is completed or
    // dropped, and every drop carries exactly one typed reason.
    cell.accounting_ok =
        cell.fleet.submitted ==
            cell.fleet.completed + cell.fleet.queue_drops &&
        cell.fleet.queue_drops == cell.fleet.drops_backpressure +
                                      cell.fleet.drops_shed_on_close +
                                      cell.fleet.drops_rate_downgrade +
                                      cell.fleet.drops_failover;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull the allocation-counting operator new/delete overrides out
    // of the static library; the memory gate below keys off this.
    const bool hooks = allocHooksForceLink();

    bool quick = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            paths.push_back(argv[i]);
    }
    const std::string json_path =
        paths.size() > 0 ? paths[0] : "BENCH_serving.json";
    const std::string memory_json_path =
        paths.size() > 1 ? paths[1] : "BENCH_memory.json";
    PerfJson json = PerfJson::load(json_path);
    PerfJson memory_doc = PerfJson::load(memory_json_path);
    // One document when both paths name the same file.
    PerfJson &memory_json =
        memory_json_path == json_path ? json : memory_doc;

    const std::vector<int> session_counts =
        quick ? std::vector<int>{1, 4, 16}
              : std::vector<int>{1, 4, 16, 64};
    const std::vector<int> chip_counts =
        quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
    const long frames = quick ? 30 : 120;

    const core::SystemConfig sys = benchSystem();
    dataset::RenderConfig rc;
    rc.image_size = sys.pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);

    // One fleet-trained estimator, copied into every session the way
    // a deployment shares a fleet-calibrated model.
    eyetrack::PredictThenFocusPipeline proto(sys.pipeline);
    proto.trainGaze(ren, 200);
    const eyetrack::RidgeGazeEstimator &trained =
        proto.gazeEstimator();

    TextTable t({"sessions", "chips", "admit", "reject", "submit",
                 "done", "drops", "misses", "agg FPS", "util",
                 "p50 us", "p99 us"});

    std::vector<Cell> cells;
    for (int chips : chip_counts) {
        for (int sessions : session_counts) {
            const Cell cell =
                runCell(sessions, chips, frames, trained, ren);
            cells.push_back(cell);
            const FleetMetrics &f = cell.fleet;
            t.addRow({std::to_string(sessions),
                      std::to_string(chips),
                      std::to_string(f.sessions_opened),
                      std::to_string(f.sessions_rejected),
                      std::to_string(f.submitted),
                      std::to_string(f.completed),
                      std::to_string(f.queue_drops),
                      std::to_string(f.deadline_misses),
                      formatDouble(f.aggregate_fps, 1),
                      formatDouble(f.backend_utilization, 3),
                      formatDouble(f.p50_latency_us, 0),
                      formatDouble(f.p99_latency_us, 0)});

            char section[32];
            std::snprintf(section, sizeof(section), "s%d_k%d",
                          sessions, chips);
            json.set(section, "sessions_opened", double(f.sessions_opened));
            json.set(section, "sessions_rejected",
                     double(f.sessions_rejected));
            json.set(section, "submitted", double(f.submitted));
            json.set(section, "completed", double(f.completed));
            json.set(section, "queue_drops", double(f.queue_drops));
            // Drop breakdown by reason: the total above must equal
            // the sum of these buckets (gated below).
            json.set(section, "drops_backpressure",
                     double(f.drops_backpressure));
            json.set(section, "drops_shed_on_close",
                     double(f.drops_shed_on_close));
            json.set(section, "drops_rate_downgrade",
                     double(f.drops_rate_downgrade));
            json.set(section, "drops_failover", double(f.drops_failover));
            json.set(section, "deadline_misses", double(f.deadline_misses));
            json.set(section, "aggregate_fps", f.aggregate_fps);
            json.set(section, "backend_utilization", f.backend_utilization);
            json.set(section, "drop_rate", f.drop_rate);
            json.set(section, "admitted_utilization",
                     cell.admitted_utilization);
            json.set(section, "p50_latency_us", f.p50_latency_us);
            json.set(section, "p99_latency_us", f.p99_latency_us);

            memory_json.set(section, "steady_frames", double(f.steady_frames));
            memory_json.set(section, "steady_allocs", double(f.steady_allocs));
            memory_json.set(section, "refresh_frames",
                            double(f.refresh_frames));
            memory_json.set(section, "refresh_allocs",
                            double(f.refresh_allocs));
            memory_json.set(section, "peak_arena_bytes",
                            double(f.peak_arena_bytes));
        }
    }

    // --- Acceptance gates ---
    const auto findCell = [&](int sessions, int chips) -> const Cell * {
        for (const Cell &c : cells)
            if (c.sessions == sessions && c.chips == chips)
                return &c;
        return nullptr;
    };

    const Cell *one_4k = findCell(1, 4);
    const Cell *sixteen_4k = findCell(16, 4);
    double scaling = 0.0;
    if (one_4k && sixteen_4k &&
        one_4k->fleet.aggregate_fps > 0.0)
        scaling = sixteen_4k->fleet.aggregate_fps /
                  one_4k->fleet.aggregate_fps;
    const bool scaling_ok = scaling >= 3.0;

    bool no_misses_below_saturation = true;
    bool graceful_overload = true;
    bool accounting_ok = true;
    for (const Cell &c : cells) {
        accounting_ok = accounting_ok && c.accounting_ok;
        if (c.admitted_utilization < 0.7) {
            no_misses_below_saturation =
                no_misses_below_saturation &&
                c.fleet.deadline_misses == 0;
        }
        // Overload (more demand than the admission bound accepts, or
        // an oversubscribed admitted fleet) must surface as typed
        // rejections and/or bounded accounted drops.
        if (c.admitted_utilization > 1.0 ||
            c.fleet.sessions_rejected > 0) {
            const bool shed_typed =
                c.fleet.sessions_rejected > 0 ||
                c.fleet.queue_drops > 0;
            graceful_overload = graceful_overload && shed_typed &&
                                c.fleet.drop_rate < 0.75;
        }
    }

    json.set("acceptance", "fps_scaling_16v1_k4", scaling);
    json.set("acceptance", "fps_scaling_at_least_3x", scaling_ok ? 1.0 : 0.0);
    json.set("acceptance", "zero_misses_below_saturation",
             no_misses_below_saturation ? 1.0 : 0.0);
    json.set("acceptance", "graceful_overload", graceful_overload ? 1.0 : 0.0);
    json.set("acceptance", "accounting_identity", accounting_ok ? 1.0 : 0.0);
    json.set("acceptance", "quick_mode", quick ? 1.0 : 0.0);

    // --- Memory-spine gate: zero heap allocations on steady frames.
    long long steady_frames = 0, steady_allocs = 0;
    long long refresh_frames = 0, refresh_allocs = 0;
    long long peak_arena_bytes = 0;
    for (const Cell &c : cells) {
        steady_frames += c.fleet.steady_frames;
        steady_allocs += c.fleet.steady_allocs;
        refresh_frames += c.fleet.refresh_frames;
        refresh_allocs += c.fleet.refresh_allocs;
        peak_arena_bytes =
            std::max(peak_arena_bytes, c.fleet.peak_arena_bytes);
    }
    const double allocs_per_steady_frame =
        steady_frames > 0
            ? double(steady_allocs) / double(steady_frames)
            : 0.0;
    // Without the hooks linked every counter reads zero, which would
    // make the gate pass vacuously — require the hooks and a
    // non-empty steady population before claiming the proof.
    const bool memory_ok =
        hooks && steady_frames > 0 && steady_allocs == 0;

    memory_json.set("memory", "hooks_installed", hooks ? 1.0 : 0.0);
    memory_json.set("memory", "steady_frames", double(steady_frames));
    memory_json.set("memory", "steady_allocs", double(steady_allocs));
    memory_json.set("memory", "allocs_per_steady_frame",
                    allocs_per_steady_frame);
    memory_json.set("memory", "refresh_frames", double(refresh_frames));
    memory_json.set("memory", "refresh_allocs", double(refresh_allocs));
    memory_json.set("memory", "peak_arena_bytes", double(peak_arena_bytes));
    memory_json.set("memory", "zero_steady_state_allocs",
                    memory_ok ? 1.0 : 0.0);
    memory_json.set("memory", "quick_mode", quick ? 1.0 : 0.0);

    const bool all_ok = scaling_ok && no_misses_below_saturation &&
                        graceful_overload && accounting_ok &&
                        memory_ok;
    std::printf(
        "=== Multi-session serving sweep (%ld frames/user%s) ===\n"
        "%s\n"
        "aggregate FPS scaling, 16 vs 1 sessions on 4 chips: %.2fx "
        "(acceptance >= 3x)\n"
        "zero deadline misses below saturation (util < 0.7): %s\n"
        "graceful overload (typed rejections / bounded drops): %s\n"
        "accounting identity (submitted == completed + drops): %s\n"
        "memory spine: %lld steady frames, %.3f allocs/frame "
        "(%lld refresh frames, %lld allocs), peak arena %lld B/session"
        " — %s\n"
        "overall: %s — results merged into %s and %s\n",
        frames, quick ? ", --quick" : "", t.render().c_str(),
        scaling, no_misses_below_saturation ? "yes" : "NO",
        graceful_overload ? "yes" : "NO",
        accounting_ok ? "yes" : "NO", steady_frames,
        allocs_per_steady_frame, refresh_frames, refresh_allocs,
        peak_arena_bytes, memory_ok ? "zero-alloc" : "FAIL",
        all_ok ? "PASS" : "FAIL", json_path.c_str(),
        memory_json_path.c_str());
    json.write(json_path);
    memory_json.write(memory_json_path);
    return all_ok ? 0 : 1;
}
