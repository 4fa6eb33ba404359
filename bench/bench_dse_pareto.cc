/**
 * @file
 * Design-space explorer benchmark and gate (DESIGN.md section 14):
 *
 *  1. runs the estimator-vs-simulator validation sweep and gates the
 *     relative error (<= 10% latency, <= 15% energy) with the
 *     paper's 128x8 configuration pinned bit-exact;
 *  2. sweeps the default candidate lattice, computes the
 *     FPS / energy-per-frame / SRAM Pareto front, and gates that the
 *     paper's Tab. 1 design point lies ON the front and that the
 *     enumeration accounting closes (evaluated + pruned ==
 *     lattice);
 *  3. proves the serving cost-model swap is bitwise neutral: the
 *     estimator-derived ServiceModel must equal the schedule-derived
 *     one field for field, and a below-saturation serving run under
 *     CostModelKind::DseEstimator must reproduce the legacy run's
 *     FleetMetrics exactly.
 *
 * Results merge into BENCH_dse.json (override the path with the
 * first positional argument); the full front also prints as a
 * table. --quick shrinks the serving cross-check for sanitizer CI
 * runs. Exit code is the gate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/stats.h"
#include "dse/search.h"
#include "dse/validate.h"
#include "serve/engine.h"

using namespace eyecod;

namespace {

/** The serving cross-check cell: below saturation on two chips. */
serve::FleetMetrics
runServingCell(serve::CostModelKind kind, long frames,
               const eyetrack::RidgeGazeEstimator &trained,
               const dataset::SyntheticEyeRenderer &ren)
{
    serve::ServingConfig cfg;
    cfg.system.pipeline.camera = eyetrack::CameraKind::Lens;
    cfg.system.pipeline.roi_refresh = 25;
    cfg.virtual_chips = 2;
    cfg.cost_model = kind;
    serve::TrafficConfig tc;
    tc.sessions = 4;
    tc.frames_per_session = frames;
    serve::ServingEngine eng(cfg, trained, ren);
    return eng.runTrace(serve::makeTraffic(ren, tc));
}

bool
sameMetrics(const serve::FleetMetrics &a,
            const serve::FleetMetrics &b)
{
    return a.submitted == b.submitted && a.completed == b.completed &&
           a.queue_drops == b.queue_drops &&
           a.deadline_misses == b.deadline_misses &&
           a.degraded_res_frames == b.degraded_res_frames &&
           a.makespan_us == b.makespan_us &&
           a.aggregate_fps == b.aggregate_fps &&
           a.backend_utilization == b.backend_utilization &&
           a.mean_latency_us == b.mean_latency_us &&
           a.p99_latency_us == b.p99_latency_us;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_path = "BENCH_dse.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            json_path = argv[i];
    }
    PerfJson json = PerfJson::load(json_path);

    bool ok = true;

    // --- 1. Estimator validation sweep ---
    Result<dse::ValidationReport> sweep = dse::runValidationSweep();
    if (!sweep.ok()) {
        std::printf("validation sweep failed: %s\n",
                    sweep.status().toString().c_str());
        return 1;
    }
    const dse::ValidationReport &rep = sweep.value();
    TextTable vt({"case", "est cycles", "sim cycles", "lat err",
                  "energy err", "exact"});
    for (const dse::ValidationCase &c : rep.cases)
        vt.addRow({c.name, std::to_string(c.est_frame_cycles),
                   std::to_string(c.sim_frame_cycles),
                   formatDouble(c.latency_rel_err, 4),
                   formatDouble(c.energy_rel_err, 4),
                   c.exact ? "yes" : "no"});
    std::printf("=== Estimator validation (gates: latency <= %.0f%%, "
                "energy <= %.0f%%, paper exact) ===\n%s\n",
                dse::kLatencyErrorGate * 100.0,
                dse::kEnergyErrorGate * 100.0, vt.render().c_str());
    std::printf("max latency err %.4f, max energy err %.4f, paper "
                "exact: %s\n\n",
                rep.max_latency_rel_err, rep.max_energy_rel_err,
                rep.paper_exact ? "yes" : "NO");
    ok = ok && rep.passed();

    json.set("validation", "cases", double(rep.cases.size()));
    json.set("validation", "max_latency_rel_err", rep.max_latency_rel_err);
    json.set("validation", "max_energy_rel_err", rep.max_energy_rel_err);
    json.set("validation", "paper_exact", rep.paper_exact ? 1.0 : 0.0);
    json.set("validation", "passed", rep.passed() ? 1.0 : 0.0);

    // --- 2. Pareto search over the default lattice ---
    Result<dse::SearchResult> search =
        dse::searchParetoFront(dse::SearchSpace::defaultSpace());
    if (!search.ok()) {
        std::printf("pareto search failed: %s\n",
                    search.status().toString().c_str());
        json.write(json_path);
        return 1;
    }
    const dse::SearchResult &sr = search.value();
    const bool accounting_ok =
        sr.evaluated + sr.pruned_infeasible + sr.pruned_monotone ==
        sr.lattice_size;
    TextTable ft({"lanes", "macs", "act KiB", "banks", "FPS",
                  "uJ/frame", "SRAM KiB", "P", "paper"});
    for (size_t idx : sr.front) {
        const dse::DesignPoint &p = sr.points[idx];
        ft.addRow({std::to_string(p.hw.mac_lanes),
                   std::to_string(p.hw.macs_per_lane),
                   std::to_string(p.hw.act_gb_bytes / 1024),
                   std::to_string(p.hw.act_gb_banks),
                   formatDouble(p.est.fps, 1),
                   formatDouble(p.est.energy_per_frame_j * 1e6, 1),
                   std::to_string(p.est.sram_total_bytes / 1024),
                   std::to_string(p.est.partition_factor),
                   p.is_paper ? "<<<" : ""});
    }
    std::printf("=== Pareto front (FPS up / energy down / SRAM "
                "down), lattice %lld -> evaluated %lld "
                "(pruned: %lld infeasible, %lld monotone) ===\n%s\n",
                sr.lattice_size, sr.evaluated, sr.pruned_infeasible,
                sr.pruned_monotone, ft.render().c_str());
    std::printf("paper point on front: %s, accounting closes: %s\n\n",
                sr.paper_on_front ? "yes" : "NO",
                accounting_ok ? "yes" : "NO");
    ok = ok && sr.paper_on_front && accounting_ok &&
         !sr.front.empty();

    json.set("search", "lattice_size", double(sr.lattice_size));
    json.set("search", "evaluated", double(sr.evaluated));
    json.set("search", "pruned_infeasible", double(sr.pruned_infeasible));
    json.set("search", "pruned_monotone", double(sr.pruned_monotone));
    json.set("search", "front_size", double(sr.front.size()));
    json.set("search", "paper_on_front", sr.paper_on_front ? 1.0 : 0.0);
    if (sr.paper_index >= 0) {
        const dse::DesignPoint &p =
            sr.points[size_t(sr.paper_index)];
        json.set("paper_point", "fps", p.est.fps);
        json.set("paper_point", "energy_per_frame_uj",
                 p.est.energy_per_frame_j * 1e6);
        json.set("paper_point", "sram_kib",
                 double(p.est.sram_total_bytes / 1024));
        json.set("paper_point", "partition_factor",
                 double(p.est.partition_factor));
    }
    // One section per front point: the front itself, in the same
    // mergeable JSON the perf-trajectory tooling reads.
    for (size_t rank = 0; rank < sr.front.size(); ++rank) {
        const dse::DesignPoint &p = sr.points[sr.front[rank]];
        char section[32];
        std::snprintf(section, sizeof(section), "front_%02zu", rank);
        json.set(section, "mac_lanes", double(p.hw.mac_lanes));
        json.set(section, "macs_per_lane", double(p.hw.macs_per_lane));
        json.set(section, "act_gb_kib", double(p.hw.act_gb_bytes / 1024));
        json.set(section, "act_gb_banks", double(p.hw.act_gb_banks));
        json.set(section, "fps", p.est.fps);
        json.set(section, "energy_per_frame_uj",
                 p.est.energy_per_frame_j * 1e6);
        json.set(section, "sram_kib", double(p.est.sram_total_bytes / 1024));
        json.set(section, "is_paper", p.is_paper ? 1.0 : 0.0);
    }

    // --- 3a. ServiceModel parity: estimator vs schedule ---
    const accel::PipelineWorkloadConfig workload;
    const accel::HwConfig hw;
    Result<serve::ServiceModel> sched_model =
        serve::deriveServiceModel(workload, hw);
    Result<serve::ServiceModel> est_model =
        serve::estimatorServiceModel(workload, hw);
    bool model_identical = false;
    if (sched_model.ok() && est_model.ok()) {
        const serve::ServiceModel &a = sched_model.value();
        const serve::ServiceModel &b = est_model.value();
        model_identical = a.gaze_frame_us == b.gaze_frame_us &&
                          a.seg_frame_us == b.seg_frame_us &&
                          a.amortized_frame_us ==
                              b.amortized_frame_us &&
                          a.chip_fps == b.chip_fps;
        std::printf("=== Serving cost model ===\n");
        std::printf("schedule:  gaze %.3f us, seg %.3f us, "
                    "amortized %.3f us, %.1f FPS\n",
                    a.gaze_frame_us, a.seg_frame_us,
                    a.amortized_frame_us, a.chip_fps);
        std::printf("estimator: gaze %.3f us, seg %.3f us, "
                    "amortized %.3f us, %.1f FPS\n",
                    b.gaze_frame_us, b.seg_frame_us,
                    b.amortized_frame_us, b.chip_fps);
    }
    Result<double> res_factor =
        serve::estimatorResolutionCostFactor(workload, hw);
    const double predicted_factor =
        res_factor.ok() ? res_factor.value() : 0.0;
    std::printf("ServiceModel bitwise identical: %s; predicted "
                "resolution cost factor %.4f (hardcoded 0.6)\n",
                model_identical ? "yes" : "NO", predicted_factor);
    ok = ok && model_identical && res_factor.ok() &&
         predicted_factor > 0.0 && predicted_factor <= 1.0;

    json.set("serve_cost_model", "model_bitwise_identical",
             model_identical ? 1.0 : 0.0);
    json.set("serve_cost_model", "resolution_cost_factor", predicted_factor);

    // --- 3b. Below-saturation serving run, legacy vs estimator ---
    {
        core::SystemConfig sys;
        sys.pipeline.camera = eyetrack::CameraKind::Lens;
        sys.pipeline.roi_refresh = 25;
        dataset::RenderConfig rc;
        rc.image_size = sys.pipeline.scene_size;
        const dataset::SyntheticEyeRenderer ren(rc, 2019);
        eyetrack::PredictThenFocusPipeline proto(sys.pipeline);
        proto.trainGaze(ren, quick ? 60 : 200);
        const long frames = quick ? 12 : 30;
        const serve::FleetMetrics legacy = runServingCell(
            serve::CostModelKind::Schedule, frames,
            proto.gazeEstimator(), ren);
        const serve::FleetMetrics swapped = runServingCell(
            serve::CostModelKind::DseEstimator, frames,
            proto.gazeEstimator(), ren);
        const bool serving_identical = sameMetrics(legacy, swapped);
        std::printf("serving run bitwise identical with cost model "
                    "swapped in: %s (%lld completed, makespan %lld "
                    "us)\n\n",
                    serving_identical ? "yes" : "NO",
                    legacy.completed, legacy.makespan_us);
        ok = ok && serving_identical;
        json.set("serve_cost_model", "serving_bitwise_identical",
                 serving_identical ? 1.0 : 0.0);
        json.set("serve_cost_model", "cross_check_completed",
                 double(legacy.completed));
    }

    std::printf("%s\n", ok ? "ALL DSE GATES PASSED"
                           : "DSE GATE FAILURES (see above)");
    json.write(json_path);
    return ok ? 0 : 1;
}
