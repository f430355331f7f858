#include "nn/gemm.h"

#include <algorithm>

#include "common/simd.h"
#include "nn/simd_kernels.h"

namespace dbaugur::nn {
namespace {

// --------------------------------------------------------------------------
// Scalar tier: the register-tiled kernels that predate the vector tiers,
// unchanged, so the forced-scalar tier stays bit-identical to them.
// All three kernels are built from R x C register tiles: the R*C partial sums
// live in registers for the whole reduction, so C-matrix traffic drops from
// one load+store per multiply-add (the naive loops' bottleneck) to one
// load+store per *tile*. Each partial sum is still a single running
// accumulator over the ascending reduction index, so every output element
// sums in exactly the naive order — bit-identical results, any tile shape.
// R and C are template constants so the compiler fully unrolls the fixed
// loops and promotes acc[][] to registers.
// --------------------------------------------------------------------------

// R x C tile of c = [c +] a * b. `a` points at the tile's first row (stride
// k), `b` at the tile's first column (stride n), `c` at the tile origin.
template <size_t R, size_t C>
inline void NNTile(const double* a, const double* b, double* c, size_t k,
                   size_t n, bool accumulate) {
  double acc[R][C];
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) acc[r][j] = accumulate ? c[r * n + j] : 0.0;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    const double* br = b + kk * n;
    for (size_t r = 0; r < R; ++r) {
      const double av = a[r * k + kk];
      for (size_t j = 0; j < C; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) c[r * n + j] = acc[r][j];
  }
}

// Rows [r0, r1) of c = [c +] a (m x k) * b (k x n).
void GemmNNRowsScalar(size_t r0, size_t r1, size_t k, size_t n,
                      const double* a, const double* b, double* c,
                      bool accumulate) {
  if (k < 8) {
    // Tiny reduction (e.g. the LSTM's 1-wide input projection): the register
    // tile's init/store overhead exceeds its k FMAs per element, so stream C
    // rows axpy-style instead. Still ascending-kk per element.
    for (size_t i = r0; i < r1; ++i) {
      double* cr = c + i * n;
      const double* ar = a + i * k;
      if (!accumulate) std::fill(cr, cr + n, 0.0);
      for (size_t kk = 0; kk < k; ++kk) {
        const double av = ar[kk];
        const double* br = b + kk * n;
        for (size_t j = 0; j < n; ++j) cr[j] += av * br[j];
      }
    }
    return;
  }
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      NNTile<4, 4>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
    }
    for (; j < n; ++j) {
      NNTile<4, 1>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
    }
  }
  for (; i < r1; ++i) {
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      NNTile<1, 4>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
    }
    for (; j < n; ++j) {
      NNTile<1, 1>(a + i * k, b + j, c + i * n + j, k, n, accumulate);
    }
  }
}

// R x C tile of c = [c +] a * b^T. `a` points at the tile's first row (stride
// k), `b` at the first of C rows of b (each length k), `c` at the tile
// origin (stride p).
template <size_t R, size_t C>
inline void NTTile(const double* a, const double* b, double* c, size_t k,
                   size_t p, bool accumulate) {
  double acc[R][C];
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) acc[r][j] = 0.0;
  }
  for (size_t kk = 0; kk < k; ++kk) {
    for (size_t r = 0; r < R; ++r) {
      const double av = a[r * k + kk];
      for (size_t j = 0; j < C; ++j) acc[r][j] += av * b[j * k + kk];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) {
      if (accumulate) {
        c[r * p + j] += acc[r][j];
      } else {
        c[r * p + j] = acc[r][j];
      }
    }
  }
}

// Rows [r0, r1) of c = [c +] a (m x k) * b^T, b is (p x k).
void GemmNTRowsScalar(size_t r0, size_t r1, size_t k, size_t p,
                      const double* a, const double* b, double* c,
                      bool accumulate) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    size_t j = 0;
    for (; j + 4 <= p; j += 4) {
      NTTile<4, 4>(a + i * k, b + j * k, c + i * p + j, k, p, accumulate);
    }
    for (; j < p; ++j) {
      NTTile<4, 1>(a + i * k, b + j * k, c + i * p + j, k, p, accumulate);
    }
  }
  for (; i < r1; ++i) {
    size_t j = 0;
    for (; j + 4 <= p; j += 4) {
      NTTile<1, 4>(a + i * k, b + j * k, c + i * p + j, k, p, accumulate);
    }
    for (; j < p; ++j) {
      NTTile<1, 1>(a + i * k, b + j * k, c + i * p + j, k, p, accumulate);
    }
  }
}

// R x C tile of c = [c +] a^T * b, reducing over the m rows of a and b.
// `a` points at column kk0 of a's first row (stride k), `b` at column j0 of
// b's first row (stride n), `c` at the tile origin (stride n).
template <size_t R, size_t C>
inline void TNTile(const double* a, const double* b, double* c, size_t m,
                   size_t k, size_t n, bool accumulate) {
  double acc[R][C];
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) acc[r][j] = accumulate ? c[r * n + j] : 0.0;
  }
  for (size_t i = 0; i < m; ++i) {
    const double* ar = a + i * k;
    const double* br = b + i * n;
    for (size_t r = 0; r < R; ++r) {
      const double av = ar[r];
      for (size_t j = 0; j < C; ++j) acc[r][j] += av * br[j];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) c[r * n + j] = acc[r][j];
  }
}

// Rows [k0, k1) of c (k x n) = [c +] a^T * b; a is (m x k), b is (m x n).
void GemmTNRowsScalar(size_t k0, size_t k1, size_t m, size_t k, size_t n,
                      const double* a, const double* b, double* c,
                      bool accumulate) {
  size_t kk = k0;
  for (; kk + 4 <= k1; kk += 4) {
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      TNTile<4, 4>(a + kk, b + j, c + kk * n + j, m, k, n, accumulate);
    }
    for (; j < n; ++j) {
      TNTile<4, 1>(a + kk, b + j, c + kk * n + j, m, k, n, accumulate);
    }
  }
  for (; kk < k1; ++kk) {
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      TNTile<1, 4>(a + kk, b + j, c + kk * n + j, m, k, n, accumulate);
    }
    for (; j < n; ++j) {
      TNTile<1, 1>(a + kk, b + j, c + kk * n + j, m, k, n, accumulate);
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch: one table of row-range kernels, indexed by the runtime tier. The
// scalar tier is the code above; vector tiers come from the per-ISA TUs
// declared in simd_kernels.h.
// --------------------------------------------------------------------------

struct RowKernels {
  void (*nn)(size_t, size_t, size_t, size_t, const double*, const double*,
             double*, bool);
  void (*tn)(size_t, size_t, size_t, size_t, size_t, const double*,
             const double*, double*, bool);
  void (*nt)(size_t, size_t, size_t, size_t, const double*, const double*,
             double*, bool);
};

constexpr RowKernels kScalarKernels = {&GemmNNRowsScalar, &GemmTNRowsScalar,
                                       &GemmNTRowsScalar};

const RowKernels& ActiveKernels() {
  switch (simd::ActiveTier()) {
#if defined(DBAUGUR_SIMD_HAS_AVX2)
    case simd::Tier::kAvx2: {
      static constexpr RowKernels k = {&tier_avx2::GemmNNRowsD,
                                       &tier_avx2::GemmTNRowsD,
                                       &tier_avx2::GemmNTRowsD};
      return k;
    }
#endif
#if defined(DBAUGUR_SIMD_HAS_SSE2)
    case simd::Tier::kSse2: {
      static constexpr RowKernels k = {&tier_sse2::GemmNNRowsD,
                                       &tier_sse2::GemmTNRowsD,
                                       &tier_sse2::GemmNTRowsD};
      return k;
    }
#endif
    default:
      return kScalarKernels;
  }
}

}  // namespace

void GemmNN(size_t m, size_t k, size_t n, const double* a, const double* b,
            double* c, bool accumulate) {
  ActiveKernels().nn(0, m, k, n, a, b, c, accumulate);
}

void GemmTN(size_t m, size_t k, size_t n, const double* a, const double* b,
            double* c, bool accumulate) {
  ActiveKernels().tn(0, k, m, k, n, a, b, c, accumulate);
}

void GemmNT(size_t m, size_t k, size_t p, const double* a, const double* b,
            double* c, bool accumulate) {
  ActiveKernels().nt(0, m, k, p, a, b, c, accumulate);
}

}  // namespace dbaugur::nn
