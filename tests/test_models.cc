/**
 * @file
 * Tests of the model builders against the paper's published numbers
 * (Tabs. 2 and 3 FLOPs/params columns) and structural invariants,
 * and of weights created on first use (nn::WeightedLayer).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "models/model_zoo.h"
#include "nn/basic_layers.h"
#include "nn/conv.h"

namespace eyecod {
namespace models {
namespace {

TEST(FBNetC100, FlopsMatchTab2)
{
    // Paper: 0.12G FLOPs, 3.59M params at 96x160.
    const nn::Graph g = buildFBNetC100(96, 160);
    EXPECT_NEAR(double(g.totalMacs()) / 1e9, 0.12, 0.02);
    EXPECT_NEAR(double(g.totalParams()) / 1e6, 3.59, 0.40);
}

TEST(FBNetC100, FlopsMatchPublishedAt224)
{
    // FBNet-C is published at 375M FLOPs @ 224x224.
    const nn::Graph g = buildFBNetC100(224, 224);
    EXPECT_NEAR(double(g.totalMacs()) / 1e6, 375.0, 40.0);
}

TEST(FBNetC100, OutputsGazeVector)
{
    const nn::Graph g = buildFBNetC100(96, 160);
    EXPECT_EQ(g.outputShape(), (nn::Shape{1, 1, kGazeOutputs}));
}

TEST(FBNetC100, ContainsAllThreeConvKinds)
{
    const nn::Graph g = buildFBNetC100(96, 160);
    const auto by_kind = g.macsByKind();
    EXPECT_GT(by_kind.at(nn::LayerKind::ConvGeneric), 0);
    EXPECT_GT(by_kind.at(nn::LayerKind::ConvPointwise), 0);
    EXPECT_GT(by_kind.at(nn::LayerKind::ConvDepthwise), 0);
    // Point-wise dominates in an MBConv network (Sec. 5.1: 68.8% of
    // the pipeline ops).
    EXPECT_GT(by_kind.at(nn::LayerKind::ConvPointwise),
              by_kind.at(nn::LayerKind::ConvGeneric));
    EXPECT_GT(by_kind.at(nn::LayerKind::ConvPointwise),
              by_kind.at(nn::LayerKind::ConvDepthwise));
}

TEST(MobileNetV2, MatchesTab2Row)
{
    // Paper: 0.10G FLOPs, 2.23M params at 96x160.
    const nn::Graph g = buildMobileNetV2(96, 160);
    EXPECT_NEAR(double(g.totalMacs()) / 1e9, 0.10, 0.02);
    EXPECT_NEAR(double(g.totalParams()) / 1e6, 2.23, 0.25);
}

TEST(ResNet18, MatchesTab2Rows)
{
    // Paper: 11.18M params; 0.56G @ 96x160 and 1.82G @ 224x224
    // (ours slightly lower from the 1-channel eye input).
    const nn::Graph small = buildResNet18(96, 160);
    EXPECT_NEAR(double(small.totalParams()) / 1e6, 11.18, 0.30);
    EXPECT_NEAR(double(small.totalMacs()) / 1e9, 0.56, 0.06);
    const nn::Graph big = buildResNet18(224, 224);
    EXPECT_NEAR(double(big.totalMacs()) / 1e9, 1.82, 0.15);
}

TEST(RitNet, FlopsTrackTab3Resolutions)
{
    // Paper Tab. 3: 17.0G @ 512, 4.1G @ 256, 1.0G @ 128.
    EXPECT_NEAR(double(buildRitNet(512, 512).totalMacs()) / 1e9, 17.0, 1.5);
    EXPECT_NEAR(double(buildRitNet(256, 256).totalMacs()) / 1e9, 4.1, 0.4);
    EXPECT_NEAR(double(buildRitNet(128, 128).totalMacs()) / 1e9, 1.0, 0.1);
}

TEST(RitNet, ParamsMatchPublishedModel)
{
    // RITNet is a ~0.25M parameter model.
    const nn::Graph g = buildRitNet(128, 128);
    EXPECT_NEAR(double(g.totalParams()) / 1e6, 0.25, 0.08);
}

TEST(RitNet, OutputsPerPixelClasses)
{
    const nn::Graph g = buildRitNet(128, 128);
    EXPECT_EQ(g.outputShape(), (nn::Shape{kSegClasses, 128, 128}));
}

TEST(UNet, MatchesTab3BaselineRow)
{
    // Paper Tab. 3: U-net 14.1G @ 512x512.
    EXPECT_NEAR(double(buildUNet(512, 512).totalMacs()) / 1e9, 14.1, 1.8);
}

TEST(UNet, OutputsPerPixelClasses)
{
    const nn::Graph g = buildUNet(128, 128);
    EXPECT_EQ(g.outputShape(), (nn::Shape{kSegClasses, 128, 128}));
}

TEST(Models, FlopsScaleWithResolution)
{
    const long long lo = buildFBNetC100(96, 160).totalMacs();
    const long long hi = buildFBNetC100(192, 320).totalMacs();
    EXPECT_NEAR(double(hi) / double(lo), 4.0, 0.4);
}

TEST(Models, QuantizedGraphsKeepShapesAndMacs)
{
    const nn::Graph f = buildFBNetC100(96, 160, 0);
    const nn::Graph q = buildFBNetC100(96, 160, 8);
    EXPECT_EQ(f.totalMacs(), q.totalMacs());
    EXPECT_EQ(f.outputShape(), q.outputShape());
    EXPECT_EQ(f.numLayers(), q.numLayers());
}

/** Parameterized smoke test: every model builds and runs forward. */
struct ModelCase
{
    const char *name;
    nn::Graph (*build)(int, int, int);
    int h, w;
};

/** Prints the case by name: gtest's default byte dump holds the
 *  pointers, which change every run, and ctest names tests by it. */
void PrintTo(const ModelCase &mc, std::ostream *os)
{
    *os << mc.name;
}

class AllModels : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(AllModels, ForwardRunsAtSmallResolution)
{
    const ModelCase &mc = GetParam();
    const nn::Graph g = mc.build(mc.h, mc.w, 8);
    const nn::Tensor out =
        g.forward({nn::Tensor(nn::Shape{1, mc.h, mc.w}, 0.4f)});
    EXPECT_EQ(out.shape(), g.outputShape());
    for (float v : out.data())
        EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AllModels,
    ::testing::Values(ModelCase{"fbnet", &buildFBNetC100, 32, 64},
                      ModelCase{"mobilenet", &buildMobileNetV2, 32,
                                64},
                      ModelCase{"resnet18", &buildResNet18, 32, 64},
                      ModelCase{"ritnet", &buildRitNet, 32, 32},
                      ModelCase{"unet", &buildUNet, 32, 32}),
    [](const ::testing::TestParamInfo<ModelCase> &param_info) {
        return param_info.param.name;
    });

/** Running 64-bit FNV-1a over the bytes of float buffers; streams a
 *  model's weights without concatenating them (snap::fnv1a takes one
 *  contiguous range). */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const std::vector<float> &v)
    {
        const auto *p = reinterpret_cast<const uint8_t *>(v.data());
        for (size_t i = 0; i < v.size() * sizeof(float); ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
};

/** The layer of node @p id when it carries weights, else null. */
const nn::WeightedLayer *
weightedLayer(const nn::Graph &g, int id)
{
    return dynamic_cast<const nn::WeightedLayer *>(g.nodeLayer(id));
}

/** A fixed seeded input at the entry's test resolution. */
nn::Tensor
seededInput(const ZooEntry &e)
{
    nn::Tensor x(nn::Shape{1, e.test_height, e.test_width});
    Rng rng(2022);
    for (float &v : x.data())
        v = float(rng.uniform());
    return x;
}

bool
bitwiseEqual(const nn::Tensor &a, const nn::Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

TEST(LazyWeights, MaterializedBytesMatchEagerInit)
{
    // Goldens derived from the eager-init builders (weights created in
    // every layer constructor): creating them on first use must not
    // change a byte of the weights, the biases or the forward output.
    struct Golden
    {
        const char *name;
        int quant_bits;
        uint64_t params; ///< Weights then bias of each layer, in order.
        uint64_t output; ///< Serial forward on seededInput().
    };
    const Golden goldens[] = {
        {"ritnet", 0, 0x61acc80eab45e092ULL, 0x4358e708763b57a9ULL},
        {"ritnet", 8, 0xc0e0bd45c4376c6fULL, 0x9d534110a3989af3ULL},
        {"unet", 0, 0x772981300fc61889ULL, 0x87aaf209015c35e2ULL},
        {"unet", 8, 0x5ed21c09cf61afd4ULL, 0x802feab5772ced6cULL},
        {"fbnet", 0, 0x77efe0f164083638ULL, 0x2b15a9d9d56efe3dULL},
        {"fbnet", 8, 0xcfce1e2249ddd16dULL, 0x813b6c1b284fa33bULL},
        {"resnet18", 0, 0x54baa26ad9b03ec4ULL, 0xaa0de1575ebd28b1ULL},
        {"resnet18", 8, 0x476b161d1f2c5864ULL, 0x61aadd423184924aULL},
        {"mobilenetv2", 0, 0xc8ae506f7de828fdULL, 0x8b4c47da6cd846a3ULL},
        {"mobilenetv2", 8, 0xb4dd83b7372fa55fULL, 0x8e174ab9241c2a9dULL},
    };
    size_t checked = 0;
    for (const ZooEntry &e : modelZoo()) {
        for (const int bits : {0, 8}) {
            SCOPED_TRACE(e.name + " quant_bits=" + std::to_string(bits));
            const Golden *golden = nullptr;
            for (const Golden &gd : goldens)
                if (e.name == gd.name && bits == gd.quant_bits)
                    golden = &gd;
            ASSERT_NE(golden, nullptr) << "no golden for this entry";
            const nn::Graph g =
                e.build(e.test_height, e.test_width, bits);
            Fnv1a params;
            for (int id = 0; id < int(g.numNodes()); ++id) {
                if (const nn::WeightedLayer *l = weightedLayer(g, id)) {
                    params.add(l->weights());
                    params.add(l->bias());
                }
            }
            Fnv1a output;
            output.add(g.forward({seededInput(e)}).data());
            EXPECT_EQ(params.h, golden->params);
            EXPECT_EQ(output.h, golden->output);
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(goldens));
}

TEST(LazyWeights, ConcurrentFirstForwardMatchesSerial)
{
    // Four threads race to create the weights of a fresh graph; each
    // must see the same bytes as a serial run.
    constexpr int kThreads = 4;
    for (const char *name : {"ritnet", "fbnet"}) {
        SCOPED_TRACE(name);
        const ZooEntry &e = findModel(name);
        const nn::Tensor x = seededInput(e);
        const nn::Tensor serial =
            e.build(e.test_height, e.test_width, 8).forward({x});

        const nn::Graph fresh = e.build(e.test_height, e.test_width, 8);
        std::vector<nn::Tensor> outs(kThreads);
        {
            std::vector<std::jthread> threads;
            for (int t = 0; t < kThreads; ++t)
                threads.emplace_back(
                    [&, t] { outs[size_t(t)] = fresh.forward({x}); });
        } // joins
        for (const nn::Tensor &out : outs)
            EXPECT_TRUE(bitwiseEqual(out, serial));
    }
}

TEST(LazyWeights, ParamCountMatchesStorage)
{
    for (const ZooEntry &e : modelZoo()) {
        SCOPED_TRACE(e.name);
        const nn::Graph g = e.build(e.test_height, e.test_width, 0);
        const long long before = g.totalParams();
        g.forward({seededInput(e)});
        EXPECT_EQ(g.totalParams(), before);
        for (int id = 0; id < int(g.numNodes()); ++id) {
            const nn::Layer *layer = g.nodeLayer(id);
            if (!layer)
                continue;
            // Every parameter the count reports lives in weighted
            // storage.
            const nn::WeightedLayer *l = weightedLayer(g, id);
            const long long stored =
                l ? (long long)(l->weights().size() + l->bias().size())
                  : 0;
            EXPECT_EQ(layer->paramCount(), stored) << layer->name();
        }
    }
}

} // namespace
} // namespace models
} // namespace eyecod
