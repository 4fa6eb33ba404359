/**
 * @file
 * Shared plumbing of the repo benchmark: run options, the host clock,
 * the in-memory span tracer, and the report that collects metrics and
 * correctness checks and serializes them once at exit.
 *
 * Two clocks meet here. Host metrics are wall time of this process
 * (std::chrono::steady_clock): latencies are medians; throughputs and
 * set-up times are rescaled to a reference core speed (calibrationMs,
 * ReferenceSteps). Modeled
 * metrics come from the serving engine's virtual clock, the
 * accelerator simulator, or the gaze ground truth; they are pure
 * functions of the seed and must repeat bit for bit.
 */

#ifndef EYECOD_PERFBENCH_BENCH_H
#define EYECOD_PERFBENCH_BENCH_H

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/gaze_math.h"

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0; ///< Measured time of the run.
    bool trace = false;    ///< Add the traced phase (per-layer run).
    /** Serving scheduler width; the benchmark's load is <= 2 threads. */
    int threads = 2;
    /**
     * Self-test mode: one setup and one pass per phase. Host numbers
     * mean little; modeled metrics and counts are exact as always.
     */
    bool quick = false;
};

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed between two host time points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Time budget of one measured phase. A pass starts only while it is
 * expected to finish inside the budget (the first pass always runs),
 * so a run measures close to --seconds and never far past it.
 */
class Phase
{
  public:
    /** @p share of --seconds; quick mode runs exactly one pass. */
    Phase(const Options &opt, double share)
        : t0_(Clock::now()), budget_ms_(opt.seconds * 1e3 * share),
          quick_(opt.quick)
    {
    }

    /** Share of the budget spent so far. */
    double
    elapsedShare() const
    {
        return msBetween(t0_, Clock::now()) / budget_ms_;
    }

    /** True when another pass as long as @p last_pass_ms fits. */
    bool
    another(double last_pass_ms) const
    {
        return !quick_ &&
               msBetween(t0_, Clock::now()) + last_pass_ms <= budget_ms_;
    }

  private:
    Clock::time_point t0_;
    double budget_ms_;
    bool quick_;
};

/**
 * Wall time (ms) of a fixed calibration: 2^17 draws from
 * std::normal_distribution on std::mt19937_64, the kind of core compute
 * the model builders spend their weight init on. It goes through the
 * standard library, not the program's Rng, so no change to the program
 * can move it.
 */
double calibrationMs();

/**
 * Factor that rescales host time measured between two calibrations,
 * read @p before_ms and @p after_ms, to the reference core speed: that
 * of a host that runs the calibration in kCalibrationRefMs.
 */
double referenceScale(double before_ms, double after_ms);

/** Calibration time of the reference host (minimum over 300 calls). */
constexpr double kCalibrationRefMs = 6.6;

/** Host ms of one call of @p fn, rescaled to the reference core speed. */
template <typename Fn>
double
referenceMs(Fn &&fn)
{
    const double before = calibrationMs();
    const Clock::time_point t0 = Clock::now();
    fn();
    const double ms = msBetween(t0, Clock::now());
    return ms * referenceScale(before, calibrationMs());
}

/**
 * Host time of a pass at the reference core speed. This shared host's
 * core speed drops by up to ~40% for seconds to minutes at a time under
 * other tenants' load, so whole runs can sit in a slow state. A pass
 * is cut into segments of about kSegmentMs of steps with a calibration
 * between segments and at both ends, and each segment's step times are
 * rescaled by referenceScale() of the calibrations around it. Every
 * pass runs the same steps in the same order, so the pass estimate is
 * the sum over steps of each step's median rescaled time.
 */
class ReferenceSteps
{
  public:
    /** Host time of steps between two calibrations (ms). */
    static constexpr double kSegmentMs = 250.0;

    /**
     * Start a pass of @p steps steps (runs a calibration). Reserves
     * room for them, so that step() never allocates: the serving
     * engine counts allocations made while it serves.
     */
    void beginPass(size_t steps);

    /**
     * Record the next step's host time. May run a calibration after
     * it, which the caller leaves out of its own pass time.
     */
    void step(double ms);

    /** Host ms step() spent calibrating since beginPass(). */
    double calibratingMs() const { return calibrating_ms_; }

    /** End the pass (runs a calibration); same step count each pass. */
    void endPass();

    /** Sum over steps of the median rescaled time (ms). */
    double passMs() const;

  private:
    void closeSegment();

    std::vector<std::vector<double>> ref_ms_; ///< [step][pass]
    std::vector<double> pass_ms_;             ///< Current pass's steps.
    size_t segment_begin_ = 0;
    double segment_ms_ = 0.0;
    double last_calibration_ms_ = 0.0;
    double calibrating_ms_ = 0.0;
};

/** True when every component of @p g is finite. */
inline bool
isFinite(const eyecod::dataset::GazeVec &g)
{
    return std::isfinite(g[0]) && std::isfinite(g[1]) &&
           std::isfinite(g[2]);
}

/** Sum of @p v. */
double sum(const std::vector<double> &v);

/** Median (linear interpolation) of @p v; 0 when empty. */
double median(std::vector<double> v);

/** Linear-interpolated @p q-quantile (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

/** 64-bit mix of (@p a, @p b): derives independent sub-seeds. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/**
 * In-memory span recorder. Spans are appended to a preallocated
 * vector and summarized once when the run ends; nothing is written
 * while the timed loop runs. A disabled tracer records nothing and
 * costs one branch per span.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = nullptr; ///< Static string (layer.call).
        int parent = -1;            ///< Enclosing span, -1 at top.
        long item = -1;             ///< Frame / pass the span serves.
        double start_ms = 0.0;      ///< Since tracer construction.
        double end_ms = 0.0;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const char *name, long item = -1);

    /** Close span @p id, the innermost open one (no-op for -1). */
    void end(int id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, long item = -1)
            : t_(t), id_(t.begin(name, item))
        {
        }
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int id_;
    };

    /** Durations (ms) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Sum of durations (ms) of spans named @p name. */
    double totalMs(const std::string &name) const;

    /** Sum over spans whose direct parent is named @p parent. */
    double childMs(const std::string &parent) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Print one line per span name: count, total, p50, p99 (ms). */
    void printSummary() const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< Stack of open span ids.
};

/** Where a metric comes from; decides how it may vary. */
enum class Kind {
    Host,    ///< Host wall time or memory: varies run to run.
    Modeled, ///< Virtual time / simulator / ground truth: exact.
    Count,   ///< Event count of the run: exact.
};

/**
 * Collects metrics and correctness checks of one workload run and
 * serializes them once, at exit.
 */
class Report
{
  public:
    struct Metric
    {
        double value = 0.0;
        std::string unit;
        Kind kind = Kind::Host;
        long samples = -1; ///< Sample count behind a percentile.
    };

    /** Record (or overwrite) metric @p name. */
    void set(const std::string &name, double value,
             const std::string &unit, Kind kind, long samples = -1);

    /**
     * Record a correctness check over @p cases cases of which
     * @p failures failed; each failure is a failed operation.
     */
    void check(const std::string &name, long cases, long failures);

    /** Count operations the workload attempted and those that failed
     *  (an error returned, or a wrong result). */
    void operations(long attempted, long failed);

    /**
     * Count frames the system did not serve as asked by design (load
     * shedding, deadline misses, rejected sessions). They count in
     * fail_ratio but are not errors.
     */
    void shed(long n) { shed_ += n; }
    long shedCount() const { return shed_; }

    bool has(const std::string &name) const;
    const Metric &get(const std::string &name) const;

    long attempted() const { return attempted_; }
    long failed() const;
    bool correct() const;

    /** Print the human-readable report (every metric, every check). */
    void print() const;

    /**
     * Deterministic signature: every Modeled and Count metric in
     * hex-float form, plus every check outcome. Equal signatures mean
     * bit-identical modeled results.
     */
    std::string signature() const;

    /**
     * The last stdout line: {"correct", "attempted", "failed",
     * "metrics"} with exactly the metrics named in @p names (a metric
     * the workload does not exercise reads 0).
     */
    std::string json(
        const std::vector<std::pair<std::string, std::string>> &names)
        const;

  private:
    struct Check
    {
        long cases = 0;
        long failures = 0;
    };
    std::map<std::string, Metric> metrics_;
    std::map<std::string, Check> checks_;
    long attempted_ = 0;
    long op_failed_ = 0;
    long shed_ = 0;
};

/** Peak resident set size of this process in MB. */
double peakRssMb();

// Workload entry points. Each runs setup, the untraced phase, and
// (with Options::trace) the traced phase, filling @p report.
void runFrameFlatcam(const Options &opt, Report &report);
void runServeSteady(const Options &opt, Report &report);
void runServeChaos(const Options &opt, Report &report);
void runDesignSweep(const Options &opt, Report &report);

} // namespace perfbench

#endif // EYECOD_PERFBENCH_BENCH_H
