#include "nn/lstm_kernels.h"

#include <cmath>

#include "common/math_utils.h"
#include "common/simd.h"
#include "nn/simd_kernels.h"

namespace dbaugur::nn {
namespace {

// Scalar tier: the fused gate loops that lstm.cpp had before the vector
// tiers, unchanged, so the forced-scalar tier stays bit-identical to them.
void GatesForwardScalar(std::size_t batch, std::size_t hidden, const double* z,
                        const double* c_prev, double* ig, double* fg,
                        double* gg, double* og, double* c, double* tanh_c,
                        double* h) {
  for (std::size_t r = 0; r < batch; ++r) {
    const double* zr = z + r * 4 * hidden;
    const double* cpr = c_prev + r * hidden;
    double* ir = ig + r * hidden;
    double* fr = fg + r * hidden;
    double* gr = gg + r * hidden;
    double* orow = og + r * hidden;
    double* cr = c + r * hidden;
    double* tr = tanh_c + r * hidden;
    double* hr = h + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      ir[j] = Sigmoid(zr[j]);
      fr[j] = Sigmoid(zr[hidden + j]);
      gr[j] = std::tanh(zr[2 * hidden + j]);
      orow[j] = Sigmoid(zr[3 * hidden + j]);
      cr[j] = fr[j] * cpr[j] + ir[j] * gr[j];
      tr[j] = std::tanh(cr[j]);
      hr[j] = orow[j] * tr[j];
    }
  }
}

void GatesBackwardScalar(std::size_t batch, std::size_t hidden,
                         const double* dh, const double* dc_next,
                         const double* tanh_c, const double* ig,
                         const double* fg, const double* gg, const double* og,
                         const double* c_prev, double* dz, double* dc_prev) {
  for (std::size_t r = 0; r < batch; ++r) {
    const double* dhr = dh + r * hidden;
    const double* dcn = dc_next + r * hidden;
    const double* tcr = tanh_c + r * hidden;
    const double* ir = ig + r * hidden;
    const double* fr = fg + r * hidden;
    const double* gr = gg + r * hidden;
    const double* orow = og + r * hidden;
    const double* cpr = c_prev + r * hidden;
    double* dzr = dz + r * 4 * hidden;
    double* dcp = dc_prev + r * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const double tc = tcr[j];
      const double iv = ir[j];
      const double fv = fr[j];
      const double gv = gr[j];
      const double ov = orow[j];
      const double dov = dhr[j] * tc;
      const double dcv = dhr[j] * ov * (1.0 - tc * tc) + dcn[j];
      dzr[j] = dcv * gv * iv * (1.0 - iv);
      dzr[hidden + j] = dcv * cpr[j] * fv * (1.0 - fv);
      dzr[2 * hidden + j] = dcv * iv * (1.0 - gv * gv);
      dzr[3 * hidden + j] = dov * ov * (1.0 - ov);
      dcp[j] = dcv * fv;
    }
  }
}

struct GateKernels {
  void (*forward)(std::size_t, std::size_t, const double*, const double*,
                  double*, double*, double*, double*, double*, double*,
                  double*);
  void (*backward)(std::size_t, std::size_t, const double*, const double*,
                   const double*, const double*, const double*, const double*,
                   const double*, const double*, double*, double*);
};

constexpr GateKernels kScalarGates = {&GatesForwardScalar,
                                      &GatesBackwardScalar};

const GateKernels& ActiveGates() {
  switch (simd::ActiveTier()) {
#if defined(DBAUGUR_SIMD_HAS_AVX2)
    case simd::Tier::kAvx2: {
      static constexpr GateKernels k = {&tier_avx2::LstmGatesForwardD,
                                        &tier_avx2::LstmGatesBackwardD};
      return k;
    }
#endif
#if defined(DBAUGUR_SIMD_HAS_SSE2)
    case simd::Tier::kSse2: {
      static constexpr GateKernels k = {&tier_sse2::LstmGatesForwardD,
                                        &tier_sse2::LstmGatesBackwardD};
      return k;
    }
#endif
    default:
      return kScalarGates;
  }
}

}  // namespace

void LstmGatesForward(std::size_t batch, std::size_t hidden, const double* z,
                      const double* c_prev, double* ig, double* fg, double* gg,
                      double* og, double* c, double* tanh_c, double* h) {
  ActiveGates().forward(batch, hidden, z, c_prev, ig, fg, gg, og, c, tanh_c,
                        h);
}

void LstmGatesBackward(std::size_t batch, std::size_t hidden, const double* dh,
                       const double* dc_next, const double* tanh_c,
                       const double* ig, const double* fg, const double* gg,
                       const double* og, const double* c_prev, double* dz,
                       double* dc_prev) {
  ActiveGates().backward(batch, hidden, dh, dc_next, tanh_c, ig, fg, gg, og,
                         c_prev, dz, dc_prev);
}

}  // namespace dbaugur::nn
