/**
 * @file
 * The dense double-precision product behind Matrix::multiplyInto:
 * one register-blocked kernel, built once per ISA and selected at
 * run time from CPUID, plus the scalar reference loop it is tested
 * against.
 *
 * Every variant accumulates each output element from +0 in ascending
 * k with a separate multiply and add (the kernel's translation unit
 * is built with -ffp-contract=off), so on finite inputs every variant
 * is bitwise-identical to gemmReference() on every machine.
 *
 * This is an internal header: production code calls
 * Matrix::multiplyInto. The variant table and ScopedVariant exist so
 * tests can run every variant the host supports.
 */

#ifndef EYECOD_COMMON_GEMM_H
#define EYECOD_COMMON_GEMM_H

#include <cstddef>
#include <span>

namespace eyecod {
namespace gemm {

/**
 * C = A * B for row-major, densely packed A (m x k), B (k x n) and
 * C (m x n). Every element of C is written; C must not alias A or B.
 */
using Kernel = void (*)(const double *a, const double *b, double *c,
                        size_t m, size_t k, size_t n);

/** One ISA build of the blocked kernel. */
struct Variant
{
    const char *isa; ///< "sse2", "avx2", "avx512f"; "portable" off x86-64.
    Kernel kernel;   ///< The kernel built for that ISA.
    bool supported;  ///< True when this CPU can run it.
};

/** Every variant built into this binary, narrowest first. */
std::span<const Variant> variants();

/** The widest supported variant, chosen once per process. */
const Variant &dispatched();

/**
 * C = A * B through the dispatched variant, or through the variant
 * a live ScopedVariant names.
 */
void multiply(const double *a, const double *b, double *c, size_t m,
              size_t k, size_t n);

/**
 * The scalar ikj loop, the oracle the variants are tested against.
 * It does not skip terms with a(i, p) == 0, so a NaN or Inf in B
 * reaches the same outputs here as in the blocked kernel.
 */
void gemmReference(const double *a, const double *b, double *c,
                   size_t m, size_t k, size_t n);

/**
 * Test seam: while alive, multiply() runs @p v instead of the
 * dispatched variant. Not thread-safe against concurrent products;
 * for single-threaded tests only.
 */
class ScopedVariant
{
  public:
    explicit ScopedVariant(const Variant &v);
    ~ScopedVariant();
    ScopedVariant(const ScopedVariant &) = delete;
    ScopedVariant &operator=(const ScopedVariant &) = delete;

  private:
    Kernel previous_;
};

} // namespace gemm
} // namespace eyecod

#endif // EYECOD_COMMON_GEMM_H
