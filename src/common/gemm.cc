// Built with -ffp-contract=off (src/common/CMakeLists.txt): an
// `acc + a * b` fused into one FMA rounds once instead of twice and
// would make the AVX-512F variant differ from the others. Clang
// fuses by default, so the property matters under both compilers.

#include "common/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>

namespace eyecod {
namespace gemm {

namespace {

/**
 * Register tile: MR rows of C by two native vectors of W doubles.
 *
 * Per step p the tile holds 8 accumulators, 2 vectors of B row p and
 * 1 broadcast of a(i, p): 11 of the 16 vector registers of SSE2 and
 * AVX2 (AVX-512 has 32), so nothing spills. Each B vector is reused
 * MR = 4 times and each A broadcast 2W times; a wider tile would
 * need 12 accumulators + 3 B vectors + 1 broadcast = 16 and leave no
 * register for the compiler. Accumulators are named locals, not an
 * array: GCC keeps a `double acc[4][16]` tile on the stack.
 */
constexpr size_t kMr = 4;

/**
 * One scalar output element, in the reference's order: from +0 in
 * ascending p, with a separate multiply and add.
 */
inline double
dotAscending(const double *arow, const double *b, size_t k, size_t n,
             size_t j)
{
    double acc = 0.0;
    for (size_t p = 0; p < k; ++p)
        acc = acc + arow[p] * b[p * n + j];
    return acc;
}

/**
 * The blocked kernel on vectors of W doubles. Inlined into each ISA
 * wrapper below, so it is compiled for that wrapper's target. B and C
 * are read and written through VU, the same vector at 8-byte
 * alignment and may_alias, so no row needs to be vector-aligned.
 */
template <size_t kW>
[[gnu::always_inline]] inline void
blocked(const double *a, const double *b, double *c, size_t m,
        size_t k, size_t n)
{
    typedef double V __attribute__((vector_size(kW * sizeof(double))));
    typedef double VU __attribute__((
        vector_size(kW * sizeof(double)), aligned(8), may_alias));
    constexpr size_t kNr = 2 * kW;
    const size_t m_main = m - m % kMr;
    const size_t n_main = n - n % kNr;
    // Column panels outermost: the k x 2W panel of B (20 KB at
    // k = 160 on AVX-512) stays in L1 while every row block of A
    // streams past it.
    for (size_t j = 0; j < n_main; j += kNr) {
        for (size_t i = 0; i < m_main; i += kMr) {
            const double *a0 = a + i * k;
            const double *a1 = a0 + k;
            const double *a2 = a1 + k;
            const double *a3 = a2 + k;
            V c00 = {}, c01 = {}, c10 = {}, c11 = {};
            V c20 = {}, c21 = {}, c30 = {}, c31 = {};
            const double *bp = b + j;
            for (size_t p = 0; p < k; ++p, bp += n) {
                const V b0 = *reinterpret_cast<const VU *>(bp);
                const V b1 = *reinterpret_cast<const VU *>(bp + kW);
                c00 = c00 + a0[p] * b0;
                c01 = c01 + a0[p] * b1;
                c10 = c10 + a1[p] * b0;
                c11 = c11 + a1[p] * b1;
                c20 = c20 + a2[p] * b0;
                c21 = c21 + a2[p] * b1;
                c30 = c30 + a3[p] * b0;
                c31 = c31 + a3[p] * b1;
            }
            double *cp = c + i * n + j;
            *reinterpret_cast<VU *>(cp) = c00;
            *reinterpret_cast<VU *>(cp + kW) = c01;
            *reinterpret_cast<VU *>(cp + n) = c10;
            *reinterpret_cast<VU *>(cp + n + kW) = c11;
            *reinterpret_cast<VU *>(cp + 2 * n) = c20;
            *reinterpret_cast<VU *>(cp + 2 * n + kW) = c21;
            *reinterpret_cast<VU *>(cp + 3 * n) = c30;
            *reinterpret_cast<VU *>(cp + 3 * n + kW) = c31;
        }
    }
    // Tails: the columns right of the last panel, then the rows below
    // the last block.
    for (size_t r = 0; r < m_main; ++r)
        for (size_t j = n_main; j < n; ++j)
            c[r * n + j] = dotAscending(a + r * k, b, k, n, j);
    for (size_t r = m_main; r < m; ++r)
        for (size_t j = 0; j < n; ++j)
            c[r * n + j] = dotAscending(a + r * k, b, k, n, j);
}

/** SSE2 on x86-64 (its baseline); generic 2-lane vectors elsewhere. */
void
kernelBaseline(const double *a, const double *b, double *c, size_t m,
               size_t k, size_t n)
{
    blocked<2>(a, b, c, m, k, n);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
kernelAvx2(const double *a, const double *b, double *c, size_t m,
           size_t k, size_t n)
{
    blocked<4>(a, b, c, m, k, n);
}

__attribute__((target("avx512f"))) void
kernelAvx512f(const double *a, const double *b, double *c, size_t m,
              size_t k, size_t n)
{
    blocked<8>(a, b, c, m, k, n);
}
#endif

/** Set only by ScopedVariant; null means "use dispatched()". */
std::atomic<Kernel> g_override{nullptr};

} // namespace

std::span<const Variant>
variants()
{
#if defined(__x86_64__)
    static const std::array<Variant, 3> table = [] {
        __builtin_cpu_init();
        return std::array<Variant, 3>{{
            {"sse2", kernelBaseline, true},
            {"avx2", kernelAvx2, __builtin_cpu_supports("avx2") != 0},
            {"avx512f", kernelAvx512f,
             __builtin_cpu_supports("avx512f") != 0},
        }};
    }();
#else
    static const std::array<Variant, 1> table = {
        {{"portable", kernelBaseline, true}}};
#endif
    return table;
}

const Variant &
dispatched()
{
    // The baseline variant is always supported, so the search stops.
    static const Variant *const widest = [] {
        const std::span<const Variant> all = variants();
        return &*std::find_if(
            all.rbegin(), all.rend(),
            [](const Variant &v) { return v.supported; });
    }();
    return *widest;
}

void
multiply(const double *a, const double *b, double *c, size_t m,
         size_t k, size_t n)
{
    const Kernel forced = g_override.load(std::memory_order_relaxed);
    (forced ? forced : dispatched().kernel)(a, b, c, m, k, n);
}

void
gemmReference(const double *a, const double *b, double *c, size_t m,
              size_t k, size_t n)
{
    // ikj keeps the inner loop contiguous in both B and C.
    std::fill(c, c + m * n, 0.0);
    for (size_t i = 0; i < m; ++i) {
        double *crow = c + i * n;
        for (size_t p = 0; p < k; ++p) {
            const double aip = a[i * k + p];
            const double *brow = b + p * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] = crow[j] + aip * brow[j];
        }
    }
}

ScopedVariant::ScopedVariant(const Variant &v)
    : previous_(g_override.exchange(v.kernel))
{
}

ScopedVariant::~ScopedVariant()
{
    g_override.store(previous_);
}

} // namespace gemm
} // namespace eyecod
