#include "nn/dense.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_utils.h"
#include "nn/init.h"

namespace dbaugur::nn {

template <typename T>
void ApplyActivation(Activation act, MatrixT<T>* m) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      m->Apply([](T x) { return x > T(0) ? x : T(0); });
      return;
    case Activation::kTanh:
      m->Apply([](T x) { return std::tanh(x); });
      return;
    case Activation::kSigmoid:
      m->Apply([](T x) { return Sigmoid(x); });
      return;
  }
}

template <typename T>
void ApplyActivationGrad(Activation act, const MatrixT<T>& pre,
                         const MatrixT<T>& post, MatrixT<T>* grad) {
  DBAUGUR_CHECK(grad->SameShape(pre) && grad->SameShape(post),
                "ApplyActivationGrad shape mismatch");
  const size_t n = grad->size();
  const T* z = pre.data();
  const T* y = post.data();
  T* g = grad->data();
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        if (z[i] <= T(0)) g[i] = T(0);
      }
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) g[i] *= T(1) - y[i] * y[i];
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) g[i] *= y[i] * (T(1) - y[i]);
      return;
  }
}

template <typename T>
DenseT<T>::DenseT(size_t in, size_t out, Activation act, Rng* rng)
    : in_(in), out_(out), act_(act), w_(in, out), b_(1, out),
      dw_(in, out), db_(1, out) {
  DBAUGUR_CHECK(in > 0 && out > 0, "Dense layer needs positive dims, got ", in,
                "x", out);
  XavierInit(&w_, rng);
}

template <typename T>
const MatrixT<T>& DenseT<T>::Forward(const MatrixT<T>& input) {
  DBAUGUR_CHECK_EQ(input.cols(), in_, "Dense::Forward input width");
  input_ = input;
  pre_act_.MatMulInto(input_, w_);
  pre_act_.AddRowVector(b_);
  output_ = pre_act_;
  ApplyActivation(act_, &output_);
  return output_;
}

template <typename T>
const MatrixT<T>& DenseT<T>::Backward(const MatrixT<T>& grad_output) {
  InputGrad(grad_output);  // fills g_ and dx_
  dw_.AddTransposeMatMul(input_, g_);
  db_.AddColSumOf(g_);
  return dx_;
}

template <typename T>
const MatrixT<T>& DenseT<T>::InputGrad(const MatrixT<T>& grad_output) {
  DBAUGUR_CHECK(grad_output.SameShape(output_),
                "Dense::Backward gradient shape ", grad_output.rows(), "x",
                grad_output.cols(), " does not match forward output ",
                output_.rows(), "x", output_.cols());
  g_ = grad_output;
  ApplyActivationGrad(act_, pre_act_, output_, &g_);
  dx_.MatMulTransposeInto(g_, w_);
  return dx_;
}

template <typename T>
std::vector<ParamT<T>> DenseT<T>::Params() {
  return {{&w_, &dw_, "dense.w"}, {&b_, &db_, "dense.b"}};
}

template class DenseT<double>;
template class DenseT<float>;

template void ApplyActivation<double>(Activation, Matrix*);
template void ApplyActivation<float>(Activation, MatrixF*);
template void ApplyActivationGrad<double>(Activation, const Matrix&,
                                          const Matrix&, Matrix*);
template void ApplyActivationGrad<float>(Activation, const MatrixF&,
                                         const MatrixF&, MatrixF*);

}  // namespace dbaugur::nn
