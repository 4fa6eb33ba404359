/**
 * @file
 * Workload design_sweep: the modeled side of the paper (Tab. 6,
 * Fig. 14). Seeded pipeline-workload variants (ROI extent, refresh
 * period, quant bits, FlatCam on/off, optical first layer) are each
 * built once with accel::buildPipelineWorkload, then evaluated on
 * hardware candidates drawn from dse::SearchSpace::defaultSpace()
 * plus the paper point, through both accel::simulateChecked and
 * dse::estimateWorkloads. A design point is one (variant, hardware)
 * pair evaluated both ways.
 */

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>

#include "accel/simulator.h"
#include "bench.h"
#include "dse/estimate.h"
#include "dse/search.h"

namespace perfbench {

using namespace eyecod;

namespace {

/**
 * ROI extents (FBNet needs multiples of 32), one variant each. Every
 * pass builds the same extents, so host time stays comparable across
 * seeds while the seed picks every other knob and the hardware
 * candidates. A build is ~200 ms and dominates a variant's time, so
 * few variants with many candidates each give every variant many
 * timed instances per run.
 */
const int kRoiExtents[][2] = {{64, 128}, {96, 160}, {128, 192}};
constexpr int kCandidatesPerVariant = 35; ///< Plus the paper point.

struct Variant
{
    accel::PipelineWorkloadConfig workload;
    std::vector<accel::HwConfig> candidates; ///< Paper point last.
};

template <typename T>
T
pick(const std::vector<T> &v, uint64_t seed, uint64_t salt)
{
    return v[size_t(mixSeed(seed, salt) % v.size())];
}

std::vector<Variant>
sampleVariants(uint64_t seed)
{
    const dse::SearchSpace space = dse::SearchSpace::defaultSpace();
    const std::vector<accel::OrchestrationMode> modes = {
        accel::OrchestrationMode::PartialTimeMultiplex,
        accel::OrchestrationMode::TimeMultiplex,
        accel::OrchestrationMode::Concurrent,
    };
    std::vector<Variant> out;
    for (int v = 0; v < int(std::size(kRoiExtents)); ++v) {
        const uint64_t vs = mixSeed(seed, 0xde5 + uint64_t(v));
        Variant var;
        accel::PipelineWorkloadConfig &w = var.workload;
        w.roi_height = kRoiExtents[v][0];
        w.roi_width = kRoiExtents[v][1];
        w.roi_refresh = pick<int>({10, 25, 50, 100}, vs, 3);
        w.quant_bits = pick<int>({4, 6, 8}, vs, 4);
        w.flatcam = pick<int>({0, 1}, vs, 5) != 0;
        w.optical_first_layer = pick<int>({0, 1}, vs, 6) != 0;
        for (int c = 0; c < kCandidatesPerVariant; ++c) {
            const uint64_t cs = mixSeed(vs, 0xc0 + uint64_t(c));
            accel::HwConfig hw;
            hw.mac_lanes = pick(space.mac_lanes, cs, 1);
            hw.macs_per_lane = pick(space.macs_per_lane, cs, 2);
            hw.act_gb_bytes = pick(space.act_gb_bytes, cs, 3);
            hw.act_gb_banks = pick(space.act_gb_banks, cs, 4);
            hw.weight_buf_bytes = pick(space.weight_buf_bytes, cs, 5);
            hw.orchestration = pick(modes, cs, 6);
            var.candidates.push_back(hw);
        }
        var.candidates.push_back(accel::HwConfig{}); // the paper point
        out.push_back(var);
    }
    return out;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Exact outcome of one pass (compared across passes). */
struct PassOutcome
{
    long points = 0;
    long feasible = 0;   ///< Both paths accepted the design.
    long exact = 0;      ///< Estimator == simulator, bit for bit.
    long must_be_exact = 0;
    long inexact_violations = 0; ///< PTM / TM points that differ.
    long disagreements = 0;      ///< One path rejected, one accepted.
    double fps_sum = 0.0;
    double energy_sum = 0.0;

    bool
    operator==(const PassOutcome &o) const
    {
        return points == o.points && feasible == o.feasible &&
               exact == o.exact && must_be_exact == o.must_be_exact &&
               inexact_violations == o.inexact_violations &&
               disagreements == o.disagreements &&
               sameBits(fps_sum, o.fps_sum) &&
               sameBits(energy_sum, o.energy_sum);
    }
};

/** One pass over every variant; @p ref, if given, times each one. */
PassOutcome
runPass(const std::vector<Variant> &variants, Tracer &t, long pass,
        ReferenceSteps *ref)
{
    PassOutcome out;
    Tracer::Scope pass_span(t, "pass", pass);
    for (const Variant &v : variants) {
        const Clock::time_point v0 = Clock::now();
        std::vector<accel::ModelWorkload> workloads;
        {
            Tracer::Scope span(t, "models.buildPipelineWorkload", pass);
            workloads = accel::buildPipelineWorkload(v.workload);
        }
        for (const accel::HwConfig &hw : v.candidates) {
            const accel::EnergyModel energy = dse::energyModelFor(hw);
            std::optional<Result<accel::PerfReport>> sim;
            std::optional<Result<dse::Estimate>> est;
            {
                Tracer::Scope span(t, "accel.simulateChecked", pass);
                sim.emplace(accel::simulateChecked(workloads, hw, energy));
            }
            {
                Tracer::Scope span(t, "dse.estimateWorkloads", pass);
                est.emplace(dse::estimateWorkloads(workloads, hw, energy));
            }
            ++out.points;
            if (sim->ok() != est->ok()) {
                ++out.disagreements;
                continue;
            }
            if (!sim->ok())
                continue; // Both reject the design: a correct answer.
            ++out.feasible;
            const accel::PerfReport &s = sim->value();
            const dse::Estimate &e = est->value();
            const bool exact = e.frame_cycles == s.frame_cycles &&
                               sameBits(e.energy_per_frame_j,
                                        s.energy_per_frame_j) &&
                               sameBits(e.fps, s.fps);
            out.exact += exact ? 1 : 0;
            if (hw.orchestration != accel::OrchestrationMode::Concurrent) {
                ++out.must_be_exact;
                out.inexact_violations += exact ? 0 : 1;
            }
            out.fps_sum += s.fps;
            out.energy_sum += s.energy_per_frame_j;
        }
        if (ref != nullptr)
            ref->step(msBetween(v0, Clock::now()));
    }
    return out;
}

struct PaperPoint
{
    double fps = 0.0;
    double uj_per_frame = 0.0;
    bool matches_simulator = false;
};

/** The paper's deployment workload on the Tab. 1 configuration. */
PaperPoint
paperPoint()
{
    PaperPoint p;
    const accel::HwConfig hw;
    const accel::EnergyModel energy = dse::energyModelFor(hw);
    const std::vector<accel::ModelWorkload> w =
        accel::buildPipelineWorkload(accel::PipelineWorkloadConfig{});
    const Result<dse::Estimate> est = dse::estimateWorkloads(w, hw, energy);
    const Result<accel::PerfReport> sim =
        accel::simulateChecked(w, hw, energy);
    if (!est.ok() || !sim.ok())
        return p;
    p.fps = est.value().fps;
    p.uj_per_frame = est.value().energy_per_frame_j * 1e6;
    p.matches_simulator =
        sameBits(est.value().fps, sim.value().fps) &&
        sameBits(est.value().energy_per_frame_j,
                 sim.value().energy_per_frame_j);
    return p;
}

} // namespace

void
runDesignSweep(const Options &opt, Report &report)
{
    // A set-up is one ~200 ms build, short enough to fall wholly inside
    // one stretch of the host, so back-to-back set-ups all read that
    // stretch. The untraced phase repeats the set-up at even intervals
    // instead, and setup_s is the median of the repetitions.
    const int setups = opt.quick ? 1 : 9;
    std::vector<double> setup_s;
    std::vector<Variant> variants;
    PaperPoint paper;
    const auto setUp = [&] {
        const double ms = referenceMs([&] {
            paper = paperPoint();
            variants = sampleVariants(opt.seed);
        });
        setup_s.push_back(ms / 1e3);
    };

    const double share = opt.trace ? 0.5 : 1.0;
    const auto account = [&](const PassOutcome &o) {
        report.operations(o.points, o.disagreements);
        report.check("design.estimator_equals_simulator_ptm_tm",
                     o.must_be_exact, o.inexact_violations);
    };

    Tracer off(false);
    std::vector<double> pass_ms;
    ReferenceSteps ref;
    std::optional<PassOutcome> first;
    long passes = 0, repeat_failures = 0;
    const Phase phase(opt, share);
    do {
        if (int(setup_s.size()) < setups &&
            phase.elapsedShare() >= double(setup_s.size()) / setups)
            setUp();
        ref.beginPass(variants.size());
        const Clock::time_point p0 = Clock::now();
        const PassOutcome o = runPass(variants, off, passes, &ref);
        pass_ms.push_back(msBetween(p0, Clock::now()) - ref.calibratingMs());
        ref.endPass();
        account(o);
        if (!first)
            first = o;
        else if (!(o == *first))
            ++repeat_failures;
        ++passes;
    } while (phase.another(pass_ms.back()));
    report.set("setup_s", median(setup_s), "s", Kind::Host,
               long(setup_s.size()));
    report.set("modeled_paper_fps", paper.fps, "FPS", Kind::Modeled);
    report.set("modeled_paper_uj_per_frame", paper.uj_per_frame, "uJ",
               Kind::Modeled);
    report.check("design.paper_point_estimator_equals_simulator", 1,
                 paper.matches_simulator ? 0 : 1);
    report.check("design.passes_repeat_exactly", passes, repeat_failures);
    report.set("design_points_per_s",
               double(first->points) * 1e3 / ref.passMs(), "points/s",
               Kind::Host, passes);
    report.set("dse.exact_ratio",
               double(first->exact) / double(std::max(1L, first->feasible)),
               "ratio", Kind::Count);
    if (!opt.trace)
        return;

    Tracer t(true);
    std::vector<double> traced_ms;
    long traced = 0, traced_mismatch = 0;
    const Phase tphase(opt, share);
    do {
        const Clock::time_point p0 = Clock::now();
        const PassOutcome o = runPass(variants, t, traced, nullptr);
        traced_ms.push_back(msBetween(p0, Clock::now()));
        account(o);
        traced_mismatch += o == *first ? 0 : 1;
        ++traced;
    } while (tphase.another(traced_ms.back()));
    report.check("design.traced_passes_match_untraced", traced,
                 traced_mismatch);

    t.printSummary();
    const auto p50 = [&](const char *name) {
        return median(t.durations(name));
    };
    report.set("models.build_workload_ms_p50",
               p50("models.buildPipelineWorkload"), "ms", Kind::Host,
               long(t.durations("models.buildPipelineWorkload").size()));
    report.set("accel.simulate_ms_p50", p50("accel.simulateChecked"), "ms",
               Kind::Host,
               long(t.durations("accel.simulateChecked").size()));
    report.set("dse.estimate_ms_p50", p50("dse.estimateWorkloads"), "ms",
               Kind::Host,
               long(t.durations("dse.estimateWorkloads").size()));
    report.set("trace.coverage", t.childMs("pass") / t.totalMs("pass"),
               "ratio", Kind::Host);
    report.set("trace.overhead_ratio",
               (sum(traced_ms) / double(traced)) /
                       (sum(pass_ms) / double(passes)) - 1.0,
               "ratio", Kind::Host);
}

} // namespace perfbench
