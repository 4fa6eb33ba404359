/**
 * @file
 * Runtime benchmark: the planned NN execution runtime against the
 * seed's eager path, on the deployment graphs.
 *
 * Four execution strategies are timed per model:
 *
 *  - seed-eager: the original per-node allocate-and-return executor
 *    with the original naive conv loop nest (replicated here
 *    verbatim so the speedup is measured against an honest baseline,
 *    not against a strawman);
 *  - eager: per-node allocation with the current optimized kernels
 *    (isolates kernel gains from arena gains);
 *  - serial: ExecutionPlan + SerialBackend (arena reuse, no threads);
 *  - threaded: ExecutionPlan + ThreadedBackend.
 *
 * Results are printed and merged into BENCH_runtime.json (flat
 * {"section": {"metric": number}} schema, shared with
 * bench_micro_stages) for machine consumption.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/perf_json.h"
#include "models/model_zoo.h"
#include "nn/conv.h"
#include "nn/quantize.h"
#include "nn/runtime.h"

using namespace eyecod;

namespace {

/**
 * The seed's Conv2d::forward, replicated exactly: unconditional
 * input copy, per-tap bounds checks, at() indexing. This is the
 * pre-refactor kernel the acceptance speedup is measured against.
 */
nn::Tensor
seedConvForward(const nn::Conv2d &conv, const nn::Tensor &x)
{
    const nn::ConvSpec &spec = conv.spec();
    nn::Tensor input = x;
    if (spec.quant_bits > 0)
        nn::fakeQuantizeTensor(input, spec.quant_bits);

    const nn::Shape out_shape = conv.outputShape();
    nn::Tensor out(out_shape);
    const int k = spec.kernel;
    const int s = spec.stride;
    const int pad = k / 2;
    const int kk = k * k;
    const int ic_count = spec.depthwise ? 1 : spec.in.c;
    const std::vector<float> &weights = conv.weights();
    const std::vector<float> &bias = conv.bias();

    for (int oc = 0; oc < out_shape.c; ++oc) {
        const int ic_begin = spec.depthwise ? oc : 0;
        const float *wbase = &weights[size_t(oc) * ic_count * kk];
        for (int oy = 0; oy < out_shape.h; ++oy) {
            for (int ox = 0; ox < out_shape.w; ++ox) {
                double acc = bias[size_t(oc)];
                for (int g = 0; g < ic_count; ++g) {
                    const int ic = ic_begin + g;
                    const float *wk = wbase + size_t(g) * kk;
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy * s + ky - pad;
                        if (iy < 0 || iy >= spec.in.h)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox * s + kx - pad;
                            if (ix < 0 || ix >= spec.in.w)
                                continue;
                            acc += wk[ky * k + kx] *
                                   input.at(ic, iy, ix);
                        }
                    }
                }
                if (spec.relu && acc < 0.0)
                    acc = 0.0;
                out.at(oc, oy, ox) = float(acc);
            }
        }
    }
    return out;
}

/**
 * The seed's Graph::forward: one freshly allocated tensor per node,
 * conv nodes on the seed kernel, everything else on the layer shim.
 */
nn::Tensor
seedEagerForward(const nn::Graph &graph,
                 const std::vector<nn::Tensor> &inputs)
{
    std::vector<nn::Tensor> values(graph.numNodes());
    const std::vector<int> &input_ids = graph.inputIds();
    for (size_t i = 0; i < input_ids.size(); ++i)
        values[size_t(input_ids[i])] = inputs[i];

    for (size_t i = 0; i < graph.numNodes(); ++i) {
        const nn::Layer *layer = graph.nodeLayer(int(i));
        if (!layer)
            continue;
        std::vector<const nn::Tensor *> args;
        for (int id : graph.nodeInputs(int(i)))
            args.push_back(&values[size_t(id)]);
        const auto *conv = dynamic_cast<const nn::Conv2d *>(layer);
        if (conv && args.size() == 1)
            values[i] = seedConvForward(*conv, *args[0]);
        else
            values[i] = layer->forward(args);
    }
    return values.back();
}

double
nowMs()
{
    using namespace std::chrono;
    return double(duration_cast<microseconds>(
                      steady_clock::now().time_since_epoch())
                      .count()) /
           1000.0;
}

/** Median-of-reps wall time of @p fn in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    double best = 0.0;
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowMs();
        fn();
        times.push_back(nowMs() - t0);
    }
    // Median.
    for (size_t i = 0; i < times.size(); ++i)
        for (size_t j = i + 1; j < times.size(); ++j)
            if (times[j] < times[i])
                std::swap(times[i], times[j]);
    best = times[times.size() / 2];
    return best;
}

struct Case
{
    std::string section;
    std::string model;
    int height;
    int width;
    int seed_reps;
    int reps;
};

void
runCase(const Case &c, PerfJson &json)
{
    const models::ZooEntry &entry = models::findModel(c.model);
    const nn::Graph graph = entry.build(c.height, c.width, 0);
    const nn::ExecutionPlan plan(graph);

    std::vector<nn::Tensor> inputs;
    for (int id : graph.inputIds()) {
        nn::Tensor t(graph.nodeShape(id));
        // Deterministic non-trivial input.
        for (size_t i = 0; i < t.size(); ++i)
            t.data()[i] =
                float(double(i * 2654435761u % 1000) / 1000.0);
        inputs.push_back(std::move(t));
    }

    nn::SerialBackend serial;
    nn::ThreadedBackend threaded;

    // Warm up (also populates backend arenas).
    serial.run(plan, inputs);
    threaded.run(plan, inputs);

    const double seed_ms =
        timeMs(c.seed_reps, [&] { seedEagerForward(graph, inputs); });
    const double eager_ms =
        timeMs(c.reps, [&] { nn::runEager(graph, inputs); });
    const double serial_ms =
        timeMs(c.reps, [&] { serial.run(plan, inputs); });
    const double threaded_ms =
        timeMs(c.reps, [&] { threaded.run(plan, inputs); });

    // Steady-state allocation audit (the zero-copy spine's claim):
    // after warmup, the planned serial path through the no-copy-in
    // entry point must run entirely out of its arena. Single-thread
    // executor + thread-local counters = an exact per-inference count.
    std::vector<const nn::Tensor *> input_ptrs;
    for (const nn::Tensor &t : inputs)
        input_ptrs.push_back(&t);
    nn::Tensor out;
    uint64_t steady_allocs = 0;
    if (serial.runCheckedInto(plan, input_ptrs, &out).isOk()) {
        const uint64_t before = AllocCounter::threadAllocs();
        const int audit_reps = 5;
        for (int r = 0; r < audit_reps; ++r)
            (void)serial.runCheckedInto(plan, input_ptrs, &out);
        steady_allocs =
            (AllocCounter::threadAllocs() - before) / audit_reps;
    }

    const nn::PlanStats &stats = plan.stats();
    const double best_ms = std::min(serial_ms, threaded_ms);

    std::printf("%-22s seed-eager %9.2f ms | eager %9.2f ms | "
                "serial %9.2f ms | %s %9.2f ms | speedup %.2fx\n",
                graph.name().c_str(), seed_ms, eager_ms, serial_ms,
                threaded.name().c_str(), threaded_ms,
                seed_ms / best_ms);
    std::printf("%-22s arena %zu slots / %zu elems, peak live %zu, "
                "eager sum %zu (%.1f%% of eager), steady allocs/inf "
                "%llu%s\n", "",
                stats.arena_slots, stats.arena_elements,
                stats.peak_live_elements, stats.eager_elements,
                100.0 * double(stats.arena_elements) /
                    double(stats.eager_elements),
                (unsigned long long)steady_allocs,
                AllocCounter::hooksInstalled() ? "" : " (no hooks)");

    json.set(c.section, "seed_eager_ms", seed_ms);
    json.set(c.section, "eager_ms", eager_ms);
    json.set(c.section, "serial_ms", serial_ms);
    json.set(c.section, "threaded_ms", threaded_ms);
    json.set(c.section, "threads", double(threaded.threadCount()));
    json.set(c.section, "speedup_vs_seed_eager", seed_ms / best_ms);
    json.set(c.section, "arena_slots", double(stats.arena_slots));
    json.set(c.section, "arena_elements", double(stats.arena_elements));
    json.set(c.section, "peak_live_elements",
             double(stats.peak_live_elements));
    json.set(c.section, "eager_elements", double(stats.eager_elements));
    json.set(c.section, "steady_allocs_per_inference", double(steady_allocs));
    json.set(c.section, "alloc_hooks_installed",
             AllocCounter::hooksInstalled() ? 1.0 : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull in the allocation-counting operator new/delete overrides
    // for the steady-state allocs-per-inference audit.
    allocHooksForceLink();

    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_runtime.json";

    const Case cases[] = {
        // RITNet at the deployment seg_input resolution — the
        // acceptance-criterion case.
        {"runtime_ritnet128", "ritnet", 128, 128, 3, 5},
        // FBNet-C100 at the deployment ROI extent.
        {"runtime_fbnet96x160", "fbnet", 96, 160, 3, 5},
    };
    PerfJson json = PerfJson::load(json_path);
    for (const Case &c : cases)
        runCase(c, json);
    json.write(json_path);

    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
