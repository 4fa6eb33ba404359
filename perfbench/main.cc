/**
 * @file
 * The repo benchmark command.
 *
 *   eyecod_perfbench --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1>
 *   eyecod_perfbench --selftest
 *
 * Workloads: frame_flatcam, serve_steady, serve_chaos, design_sweep
 * (README.md says why each exists). The command prints every metric
 * and every correctness check by name, then, as the last line, one
 * JSON object: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. A traced run measures an untraced phase
 * and a traced phase of half the time each; the overhead of tracing
 * is their difference.
 *
 * --selftest runs every workload twice in quick mode, and the
 * serving ones once more at one scheduler thread, and requires
 * bit-identical modeled metrics, counts and check outcomes.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/alloc_counter.h"

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/** End-to-end metrics of the JSON line (--trace 0); BENCHMARK.json. */
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"host_items_per_s", "items/s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics of the JSON line (--trace 1); BENCHMARK.json. */
const MetricList kPerLayer = {
    {"dataset.render_ms_p50", "ms"},
    {"flatcam.capture_ms_p50", "ms"},
    {"flatcam.reconstruct_ms_p50", "ms"},
    {"flatcam.gmacs_per_s", "GMAC/s"},
    {"flatcam.macs_per_frame", "count"},
    {"eyetrack.segment_ms_p50", "ms"},
    {"eyetrack.segment_calls_per_frame", "ratio"},
    {"eyetrack.roi_ms_p50", "ms"},
    {"eyetrack.gaze_ms_p50", "ms"},
    {"eyetrack.roi_accept_ratio", "ratio"},
    {"eyetrack.frame_ms_p99", "ms"},
    {"serve.engine_ctor_s", "s"},
    {"models.build_workload_ms_p50", "ms"},
    {"accel.simulate_ms_p50", "ms"},
    {"dse.estimate_ms_p50", "ms"},
    {"dse.exact_ratio", "ratio"},
    {"serve.advance_ms_p50", "ms"},
    {"serve.advance_ms_p99", "ms"},
    {"serve.chip_utilization", "ratio"},
    {"serve.deadline_misses", "count"},
    {"serve.drops_backpressure", "count"},
    {"serve.drops_rate_downgrade", "count"},
    {"serve.drops_failover", "count"},
    {"serve.drops_shed_on_close", "count"},
    {"serve.redispatched_frames", "count"},
    {"serve.degraded_res_frames", "count"},
    {"serve.tier_ticks_0", "count"},
    {"serve.tier_ticks_1", "count"},
    {"serve.tier_ticks_2", "count"},
    {"serve.tier_ticks_3", "count"},
    {"serve.tier_ticks_4", "count"},
    {"serve.snapshot_bytes", "bytes"},
    {"serve.snapshot_save_ms_p50", "ms"},
    {"serve.snapshot_restore_ms_p50", "ms"},
    {"serve.steady_allocs_per_frame", "count"},
    {"serve.peak_arena_bytes", "bytes"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    // The workload-specific end-to-end metrics, recorded from the
    // untraced half of the traced run (one workload each, so they
    // cannot sit in the end-to-end list every workload must fill).
    {"host_fps", "frames/s"},
    {"host_frame_ms_p50", "ms"},
    {"design_points_per_s", "points/s"},
    {"checkpoint_ms_p50", "ms"},
    {"fail_ratio", "ratio"},
    {"gaze_error_deg", "deg"},
    {"modeled_latency_us_p50", "us"},
    {"modeled_latency_us_p99", "us"},
    {"modeled_fps", "FPS"},
    {"modeled_paper_fps", "FPS"},
    {"modeled_paper_uj_per_frame", "uJ"},
};

using Runner = void (*)(const Options &, Report &);

const std::vector<std::pair<std::string, Runner>> kWorkloads = {
    {"frame_flatcam", runFrameFlatcam},
    {"serve_steady", runServeSteady},
    {"serve_chaos", runServeChaos},
    {"design_sweep", runDesignSweep},
};

Runner
findWorkload(const std::string &name)
{
    for (const auto &[n, fn] : kWorkloads)
        if (n == name)
            return fn;
    return nullptr;
}

/** Fill the metrics every workload shares, after its phases ran. */
void
finish(Report &report)
{
    report.set("peak_rss_mb", peakRssMb(), "MB", Kind::Host);
    report.set("fail_ratio",
               double(report.failed() + report.shedCount()) /
                   double(std::max(1L, report.attempted())),
               "ratio", Kind::Count);
    const char *rate = report.has("host_fps") ? "host_fps"
                                              : "design_points_per_s";
    if (report.has(rate))
        report.set("host_items_per_s", report.get(rate).value,
                   "items/s", Kind::Host, report.get(rate).samples);
    long bad = 0;
    for (const MetricList *list : {&kEndToEnd, &kPerLayer})
        for (const auto &[name, unit] : *list)
            if (report.has(name) &&
                (!std::isfinite(report.get(name).value) ||
                 report.get(name).unit != unit))
                ++bad;
    report.check("report.metrics_finite_with_declared_units", 1,
                 bad > 0 ? 1 : 0);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: eyecod_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       eyecod_perfbench --selftest\n"
                 "workloads: frame_flatcam serve_steady serve_chaos "
                 "design_sweep\n");
    return 2;
}

int
selftest()
{
    int failures = 0;
    for (const auto &[name, fn] : kWorkloads) {
        Options opt;
        opt.workload = name;
        opt.seed = 7;
        opt.quick = true;
        opt.trace = true;
        std::vector<std::string> sigs;
        for (int threads : {2, 2, 1}) {
            opt.threads = threads;
            Report r;
            fn(opt, r);
            finish(r);
            if (!r.correct()) {
                r.print();
                std::printf("selftest %s: checks failed at %d "
                            "threads\n",
                            name.c_str(), threads);
                ++failures;
            }
            sigs.push_back(r.signature());
        }
        const bool same = sigs[0] == sigs[1] && sigs[0] == sigs[2];
        std::printf("selftest %-14s modeled metrics and counts %s "
                    "across two runs and 1/2 threads\n",
                    name.c_str(), same ? "identical" : "DIFFER");
        if (!same) {
            for (const std::string &s : sigs)
                std::printf("  %s\n", s.c_str());
            ++failures;
        }
    }
    std::printf("selftest: %s\n", failures == 0 ? "pass" : "FAIL");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Link the counting operator new/delete so the serving engine's
    // steady-frame allocation audit reads real numbers.
    if (!eyecod::allocHooksForceLink())
        std::fprintf(stderr, "allocation hooks not linked\n");
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--selftest")
            return selftest();
        if (next == nullptr)
            return usage();
        if (a == "--workload") {
            opt.workload = next;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(next, nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(next);
        } else if (a == "--trace") {
            opt.trace = std::atoi(next) != 0;
        } else {
            return usage();
        }
        ++i;
    }
    const Runner run = findWorkload(opt.workload);
    if (!have_workload || run == nullptr || !(opt.seconds > 0.0))
        return usage();

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    Report report;
    run(opt, report);
    finish(report);
    report.print();
    std::printf("%s\n",
                report.json(opt.trace ? kPerLayer : kEndToEnd).c_str());
    return 0;
}
