/**
 * @file
 * Google-benchmark micro-benchmarks of the functional pipeline
 * stages: FlatCam capture, Tikhonov reconstruction, segmentation,
 * ROI prediction, and gaze inference, plus the six dense products of
 * one FlatCam frame on the reference loop and on the CPU-dispatched
 * blocked kernel (common/gemm.h), and the build of the accelerator
 * workload (model graphs, shapes only). These time the host-side
 * reference implementations (the deployment latency numbers come
 * from the cycle-level simulator, not from these).
 *
 * Besides the console table, per-stage latencies are merged into
 * BENCH_runtime.json (section "micro_stages", milliseconds per
 * iteration) — the same machine-readable store bench_runtime writes
 * its backend comparison into. An optional positional argument names
 * another file, as for bench_runtime:
 *
 *     bench_micro_stages [--benchmark_* flags] [out.json]
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "accel/workload.h"
#include "common/gemm.h"
#include "common/perf_json.h"
#include "common/rng.h"
#include "eyetrack/pipeline.h"

using namespace eyecod;
using namespace eyecod::eyetrack;

namespace {

struct Fixture
{
    dataset::SyntheticEyeRenderer renderer;
    PredictThenFocusPipeline pipeline;
    dataset::EyeSample sample;
    Image reconstructed;
    dataset::SegMask mask;

    Fixture()
        : renderer(
              [] {
                  dataset::RenderConfig rc;
                  rc.image_size = 128;
                  return rc;
              }(),
              2019),
          pipeline([] {
              PipelineConfig pc;
              pc.camera = CameraKind::FlatCam;
              pc.scene_size = 128;
              return pc;
          }()),
          sample(renderer.sample(7))
    {
        pipeline.trainGaze(renderer, 200);
        reconstructed = pipeline.acquire(sample.image);
        mask = pipeline.segmenter().segment(reconstructed);
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
BM_RenderEye(benchmark::State &state)
{
    Fixture &f = fixture();
    uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(f.renderer.sample(i++));
}
BENCHMARK(BM_RenderEye);

void
BM_FlatCamAcquire(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.pipeline.acquire(f.sample.image));
}
BENCHMARK(BM_FlatCamAcquire);

void
BM_Segmentation(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            f.pipeline.segmenter().segment(f.reconstructed));
}
BENCHMARK(BM_Segmentation);

void
BM_RoiPrediction(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.pipeline.roiPredictor().predict(
            f.mask, CropPolicy::Roi));
}
BENCHMARK(BM_RoiPrediction);

void
BM_GazeInference(benchmark::State &state)
{
    Fixture &f = fixture();
    const Rect roi =
        f.pipeline.roiPredictor().predict(f.mask, CropPolicy::Roi);
    const Image crop = f.reconstructed.cropped(roi);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            f.pipeline.gazeEstimator().predict(crop));
}
BENCHMARK(BM_GazeInference);

void
BM_FullFrame(benchmark::State &state)
{
    Fixture &f = fixture();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            f.pipeline.processFrame(f.sample.image));
}
BENCHMARK(BM_FullFrame);

/** One dense product C (m x n) = A (m x k) * B (k x n). */
struct GemmShape
{
    size_t m, k, n;
};

/**
 * The six products of one frame under the default 160x160 sensor,
 * 128x128 scene mask: capture PhiL * X * PhiR^T, then reconstruction
 * Ul^T * y * Ur and Vl * Xhat * Vr^T on the thin SVD.
 */
constexpr GemmShape kFlatCamChain[] = {
    {160, 128, 128}, {160, 128, 160}, {128, 160, 160},
    {128, 160, 128}, {128, 128, 128}, {128, 128, 128},
};

void
BM_GemmChain(benchmark::State &state, gemm::Kernel kernel,
             const char *label)
{
    Rng rng(2022);
    std::vector<std::vector<double>> a, b, c;
    double macs = 0.0;
    for (const GemmShape &s : kFlatCamChain) {
        a.emplace_back(s.m * s.k);
        b.emplace_back(s.k * s.n);
        c.emplace_back(s.m * s.n);
        for (double &x : a.back())
            x = rng.gaussian();
        for (double &x : b.back())
            x = rng.gaussian();
        macs += double(s.m * s.k * s.n);
    }
    for (auto _ : state) {
        for (size_t i = 0; i < c.size(); ++i) {
            const GemmShape &s = kFlatCamChain[i];
            kernel(a[i].data(), b[i].data(), c[i].data(), s.m, s.k, s.n);
            benchmark::DoNotOptimize(c[i].data());
        }
        benchmark::ClobberMemory();
    }
    state.counters["GMAC/s"] = benchmark::Counter(
        macs * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
    state.SetLabel(label);
}
BENCHMARK_CAPTURE(BM_GemmChain, Reference, gemm::gemmReference,
                  "reference");
BENCHMARK_CAPTURE(BM_GemmChain, Dispatched, gemm::dispatched().kernel,
                  gemm::dispatched().isa);

/**
 * The default accelerator workload: RITNet and FBNet-C100 graphs plus
 * the reconstruction layers, of which only the shapes are read.
 */
void
BM_BuildPipelineWorkload(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            accel::buildPipelineWorkload(accel::PipelineWorkloadConfig{}));
}
BENCHMARK(BM_BuildPipelineWorkload);

/**
 * Console reporter that additionally captures per-benchmark real
 * time (milliseconds per iteration) for the JSON perf store.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred || run.iterations <= 0)
                continue;
            const double ms = 1e3 * run.real_accumulated_time /
                              double(run.iterations);
            captured_[run.benchmark_name()] = ms;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::map<std::string, double> &
    captured() const
    {
        return captured_;
    }

  private:
    std::map<std::string, double> captured_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    // Optional positional output path, as bench_runtime takes it.
    // Initialize() has removed its own flags; take the path out too
    // before the leftover-argument check rejects it.
    std::string json_path = "BENCH_runtime.json";
    if (argc > 1 && argv[1][0] != '-') {
        json_path = argv[1];
        std::copy(argv + 2, argv + argc + 1, argv + 1);
        --argc;
    }
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    PerfJson json = PerfJson::load(json_path);
    for (const auto &[name, ms] : reporter.captured())
        json.set("micro_stages", name, ms);
    json.write(json_path);
    return 0;
}
