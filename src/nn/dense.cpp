#include "nn/dense.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_utils.h"
#include "nn/init.h"

namespace dbaugur::nn {

void ApplyActivation(Activation act, Matrix* m) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      m->Apply([](double x) { return x > 0.0 ? x : 0.0; });
      return;
    case Activation::kTanh:
      m->Apply([](double x) { return std::tanh(x); });
      return;
    case Activation::kSigmoid:
      m->Apply([](double x) { return Sigmoid(x); });
      return;
  }
}

void ApplyActivationGrad(Activation act, const Matrix& pre, const Matrix& post,
                         Matrix* grad) {
  DBAUGUR_CHECK(grad->SameShape(pre) && grad->SameShape(post),
                "ApplyActivationGrad shape mismatch");
  const size_t n = grad->size();
  const double* z = pre.data();
  const double* y = post.data();
  double* g = grad->data();
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        if (z[i] <= 0.0) g[i] = 0.0;
      }
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) g[i] *= 1.0 - y[i] * y[i];
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) g[i] *= y[i] * (1.0 - y[i]);
      return;
  }
}

Dense::Dense(size_t in, size_t out, Activation act, Rng* rng)
    : in_(in), act_(act), w_(in, out), b_(1, out),
      dw_(in, out), db_(1, out) {
  DBAUGUR_CHECK(in > 0 && out > 0, "Dense layer needs positive dims, got ", in,
                "x", out);
  XavierInit(&w_, rng);
}

const Matrix& Dense::Forward(const Matrix& input) {
  DBAUGUR_CHECK_EQ(input.cols(), in_, "Dense::Forward input width");
  input_ = input;
  pre_act_.MatMulInto(input_, w_);
  pre_act_.AddRowVector(b_);
  output_ = pre_act_;
  ApplyActivation(act_, &output_);
  return output_;
}

const Matrix& Dense::Backward(const Matrix& grad_output) {
  InputGrad(grad_output);  // fills g_ and dx_
  dw_.AddTransposeMatMul(input_, g_);
  db_.AddColSumOf(g_);
  return dx_;
}

const Matrix& Dense::InputGrad(const Matrix& grad_output) {
  DBAUGUR_CHECK(grad_output.SameShape(output_),
                "Dense::Backward gradient shape ", grad_output.rows(), "x",
                grad_output.cols(), " does not match forward output ",
                output_.rows(), "x", output_.cols());
  g_ = grad_output;
  ApplyActivationGrad(act_, pre_act_, output_, &g_);
  dx_.MatMulTransposeInto(g_, w_);
  return dx_;
}

void Dense::ReleaseWorkspaces() {
  for (Matrix* m : {&input_, &pre_act_, &output_, &g_, &dx_}) *m = Matrix();
}

std::vector<Param> Dense::Params() {
  return {{&w_, &dw_, "dense.w"}, {&b_, &db_, "dense.b"}};
}

void Dense::ZeroGrad() {
  dw_.Fill(0.0);
  db_.Fill(0.0);
}

}  // namespace dbaugur::nn
