/**
 * @file
 * Differential tests of the blocked GEMM (common/gemm.h): every ISA
 * variant the host supports against the scalar reference loop, bit
 * for bit, plus a cross-ISA determinism pin of the FlatCam frame path
 * (capture and Tikhonov reconstruction) that runs on those products.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/gemm.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "flatcam/imaging.h"
#include "flatcam/mask.h"
#include "flatcam/reconstruction.h"

namespace eyecod {
namespace {

/** Gaussian entries with a sprinkling of +0 and -0. */
std::vector<double>
randomOperand(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(count);
    for (double &x : v) {
        const double u = rng.uniform();
        x = u < 0.1 ? 0.0 : u < 0.15 ? -0.0 : rng.gaussian();
    }
    return v;
}

std::vector<const gemm::Variant *>
supportedVariants()
{
    std::vector<const gemm::Variant *> out;
    for (const gemm::Variant &v : gemm::variants())
        if (v.supported)
            out.push_back(&v);
    return out;
}

/** Runs one variant and the reference on A * B; bytes must match. */
::testing::AssertionResult
matchesReference(const gemm::Variant &v, const double *a,
                 const double *b, size_t m, size_t k, size_t n)
{
    std::vector<double> want(m * n, 1.0);
    std::vector<double> got(m * n, 1.0);
    gemm::gemmReference(a, b, want.data(), m, k, n);
    v.kernel(a, b, got.data(), m, k, n);
    if (std::memcmp(want.data(), got.data(),
                    want.size() * sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << v.isa << " differs from the reference at " << m << "x"
           << k << " * " << k << "x" << n;
}

TEST(Gemm, EveryVariantMatchesReferenceBitwise)
{
    std::vector<size_t> extents;
    for (size_t e = 1; e <= 17; ++e)
        extents.push_back(e);
    extents.push_back(128);
    extents.push_back(160);
    const size_t depths[] = {1, 9, 128, 160};

    for (const gemm::Variant *v : supportedVariants()) {
        for (size_t k : depths) {
            for (size_t m : extents) {
                for (size_t n : extents) {
                    const std::vector<double> a =
                        randomOperand(m * k, m * 1000 + k);
                    const std::vector<double> b =
                        randomOperand(k * n, n * 1000 + k + 7);
                    ASSERT_TRUE(
                        matchesReference(*v, a.data(), b.data(), m, k, n));
                }
            }
        }
    }
}

TEST(Gemm, FlatCamChainMatchesReferenceBitwise)
{
    // The six products of one frame on the real operands: the 0/1
    // MLS masks (no fabrication noise) for capture and their SVD
    // factors for reconstruction.
    flatcam::MaskConfig mc;
    mc.fabrication_noise = 0.0;
    const flatcam::SeparableMask mask = flatcam::makeSeparableMask(mc);
    const Svd left = computeSvd(mask.phiL);
    const Svd right = computeSvd(mask.phiR);
    const Matrix phi_r_t = mask.phiR.transposed();
    const Matrix ul_t = left.u.transposed();
    const Matrix vr_t = right.v.transposed();
    Matrix scene(mask.phiL.cols(), mask.phiR.cols());
    Rng rng(17);
    for (double &x : scene.data())
        x = rng.uniform();

    const Matrix lx = mask.phiL.multiply(scene);
    const Matrix y = lx.multiply(phi_r_t);
    const Matrix uy = ul_t.multiply(y);
    const Matrix yhat = uy.multiply(right.u);
    const Matrix vy = left.v.multiply(yhat);
    const std::pair<const Matrix *, const Matrix *> chain[] = {
        {&mask.phiL, &scene}, {&lx, &phi_r_t},  {&ul_t, &y},
        {&uy, &right.u},      {&left.v, &yhat}, {&vy, &vr_t},
    };
    for (const gemm::Variant *v : supportedVariants())
        for (const auto &[a, b] : chain)
            ASSERT_TRUE(matchesReference(*v, a->data().data(),
                                         b->data().data(), a->rows(),
                                         a->cols(), b->cols()));
}

TEST(Gemm, NonFiniteInputsReachTheSameOutputs)
{
    // A zero weight must not hide a NaN or Inf: 0 * NaN = NaN, so
    // the rows with a(i, 2) == 0 are poisoned in both paths.
    const size_t m = 13, k = 9, n = 21;
    std::vector<double> a = randomOperand(m * k, 3);
    std::vector<double> b = randomOperand(k * n, 4);
    for (size_t i = 0; i < m; i += 3)
        a[i * k + 2] = 0.0;
    b[2 * n + 5] = std::numeric_limits<double>::quiet_NaN();
    b[6 * n + 19] = std::numeric_limits<double>::infinity();

    std::vector<double> want(m * n);
    gemm::gemmReference(a.data(), b.data(), want.data(), m, k, n);
    for (const gemm::Variant *v : supportedVariants()) {
        std::vector<double> got(m * n);
        v->kernel(a.data(), b.data(), got.data(), m, k, n);
        for (size_t e = 0; e < m * n; ++e) {
            ASSERT_EQ(std::isfinite(want[e]), std::isfinite(got[e]))
                << v->isa << " element " << e;
            if (std::isfinite(want[e])) {
                ASSERT_EQ(std::memcmp(&want[e], &got[e], sizeof(double)),
                          0)
                    << v->isa << " element " << e;
            }
        }
        // Column 5 is NaN in every row, zero-weighted ones included.
        for (size_t i = 0; i < m; ++i)
            EXPECT_TRUE(std::isnan(got[i * n + 5])) << v->isa;
    }
}

TEST(Gemm, DispatchesTheWidestSupportedVariant)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    const std::string want = __builtin_cpu_supports("avx512f") ? "avx512f"
                             : __builtin_cpu_supports("avx2") ? "avx2"
                                                              : "sse2";
#else
    const std::string want = "portable";
#endif
    EXPECT_EQ(gemm::dispatched().isa, want);
    EXPECT_TRUE(gemm::dispatched().supported);
    EXPECT_EQ(supportedVariants().back(), &gemm::dispatched());
}

TEST(Gemm, MatrixMultiplyRunsTheScopedVariant)
{
    const Matrix a(3, 3, 1.0);
    const Matrix b(3, 3, 2.0);
    for (const gemm::Variant *v : supportedVariants()) {
        gemm::ScopedVariant scoped(*v);
        const Matrix c = a.multiply(b);
        EXPECT_EQ(c(2, 2), 6.0) << v->isa;
    }
}

struct FrameBytes
{
    Image measurement;
    Image reconstructed;
};

/**
 * One fixed seeded 128x128 scene through the public FlatCam API, with
 * read and shot noise on. The SVD in the reconstructor's constructor
 * runs no product, so it is built once.
 */
struct FramePath
{
    flatcam::SeparableMask mask =
        flatcam::makeSeparableMask(flatcam::MaskConfig{});
    flatcam::FlatCamReconstructor rec{mask, 1e-4};
    Image scene{128, 128};

    FramePath()
    {
        Rng rng(2022);
        for (float &px : scene.data())
            px = float(rng.uniform());
    }

    /** A fresh sensor each time, so every run draws the same noise. */
    FrameBytes
    run() const
    {
        flatcam::SensorNoise noise;
        noise.shot_noise_scale = 4000.0;
        const flatcam::FlatCamSensor sensor(mask, noise);
        FrameBytes out;
        out.measurement = sensor.capture(scene);
        out.reconstructed = rec.reconstruct(out.measurement);
        return out;
    }
};

uint64_t
hashImage(const Image &img)
{
    return snap::fnv1a(
        reinterpret_cast<const uint8_t *>(img.data().data()),
        img.data().size() * sizeof(float));
}

bool
sameBytes(const Image &x, const Image &y)
{
    return x.data().size() == y.data().size() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.data().size() * sizeof(float)) == 0;
}

TEST(GemmFramePath, IdenticalBytesOnEveryVariant)
{
    // Derived by running this same frame on the parent commit, whose
    // products went through the scalar ikj loop (with its zero skip):
    // the blocked kernels reproduce that frame bit for bit. The
    // frames are float, so a last-bit change in a double product can
    // round away here; the tests above pin the products' own bits.
    constexpr uint64_t kGoldenMeasurement = 0x9ceb3ca54a835096ull;
    constexpr uint64_t kGoldenReconstructed = 0x0046b0d122cf27a4ull;

    const FramePath path;
    std::vector<FrameBytes> frames;
    for (const gemm::Variant *v : supportedVariants()) {
        gemm::ScopedVariant scoped(*v);
        frames.push_back(path.run());
    }
    ASSERT_FALSE(frames.empty());
    for (const FrameBytes &f : frames) {
        EXPECT_TRUE(sameBytes(f.measurement, frames[0].measurement));
        EXPECT_TRUE(sameBytes(f.reconstructed, frames[0].reconstructed));
    }
    EXPECT_EQ(hashImage(frames[0].measurement), kGoldenMeasurement);
    EXPECT_EQ(hashImage(frames[0].reconstructed), kGoldenReconstructed);
    // The dispatched path (no override) is the same frame.
    EXPECT_TRUE(
        sameBytes(path.run().reconstructed, frames[0].reconstructed));
}

} // namespace
} // namespace eyecod
