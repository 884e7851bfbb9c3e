#include "nn/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common/logging.hpp"

namespace verihvac::nn {

namespace {

// Each kernel is an always_inline body, so every variant wrapper below
// compiles its own copy at the wrapper's ISA; a helper left out of line
// would run at the baseline ISA inside the wide variants. Inline functions
// from headers (Matrix, std::vector) stay at the baseline ISA wherever the
// compiler keeps a call to them.

/// Outputs computed together per weight load: the output tile of a wide
/// layer (its accumulators stay in vector registers across the k loop) and
/// the row block of the inference kernel and of a thin training layer. A
/// layer with fewer than kRows outputs is thin: blocking rows, not output
/// columns, fills its vector lanes.
constexpr std::size_t kOTile = 32;
constexpr std::size_t kRows = 8;
/// Inputs per dW tile: its accumulators are kDwTile vectors.
constexpr std::size_t kDwTile = 8;

/// Training forward: out = input W^T + b. Element (r, o) accumulates
/// w[o][k] * x[r][k] with k ascending from 0.0, and bias[o] is added after
/// the last term. The vector lanes are always *independent* outputs, so
/// vectorization reorders no chain.
[[gnu::always_inline]] inline void linear_forward(const Matrix& weight, const Matrix& bias_row,
                                                  const Matrix& input, Matrix& out,
                                                  Matrix& wt_scratch) {
  assert(input.cols() == weight.cols());
  assert(&input != &out && "linear forward: output aliases the input");
  const std::size_t n = input.rows();
  const std::size_t in = weight.cols();
  const std::size_t on = weight.rows();
  const double* bias = bias_row.row_data(0);
  out.reshape(n, on);  // every element is overwritten

  // Thin output layers (e.g. the 32 -> 1 regression head) are pure
  // reductions over k — latency-bound on one FP-add chain per output. Row
  // blocking flips the parallelism axis: eight rows' chains retire
  // together, each in its own k-ascending order, so bits are unchanged.
  if (on < kRows) {
    std::size_t r = 0;
    for (; r + kRows <= n; r += kRows) {
      const double* x[kRows];
      for (std::size_t j = 0; j < kRows; ++j) x[j] = input.row_data(r + j);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double acc[kRows];
        for (std::size_t j = 0; j < kRows; ++j) acc[j] = 0.0;
        for (std::size_t k = 0; k < in; ++k) {
          const double wk = wrow[k];
          for (std::size_t j = 0; j < kRows; ++j) acc[j] += wk * x[j][k];
        }
        for (std::size_t j = 0; j < kRows; ++j) out(r + j, o) = acc[j] + bias[o];
      }
    }
    for (; r < n; ++r) {
      const double* __restrict x = input.row_data(r);
      double* __restrict y = out.row_data(r);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double sum = 0.0;
        for (std::size_t k = 0; k < in; ++k) sum += wrow[k] * x[k];
        y[o] = sum + bias[o];
      }
    }
    return;
  }

  // Stage W^T (in x out) so the GEMM inner loop is contiguous in both the
  // output row and the weight row. The copy is O(in*on) against the
  // O(n*in*on) product — noise for any real batch.
  wt_scratch.reshape(in, on);
  for (std::size_t o = 0; o < on; ++o) {
    const double* wrow = weight.row_data(o);
    for (std::size_t k = 0; k < in; ++k) wt_scratch(k, o) = wrow[k];
  }

  // i-k-j with register-tiled outputs: each kOTile-wide slice of the
  // output row lives in a fixed-size local accumulator (compile-time
  // bounds, so it stays in vector registers) across the whole k loop, and
  // is stored exactly once. The remainder tile has a runtime width.
  for (std::size_t r = 0; r < n; ++r) {
    const double* __restrict x = input.row_data(r);
    double* __restrict y = out.row_data(r);
    std::size_t o0 = 0;
    for (; o0 + kOTile <= on; o0 += kOTile) {
      double acc[kOTile];
      for (std::size_t j = 0; j < kOTile; ++j) acc[j] = 0.0;
      for (std::size_t k = 0; k < in; ++k) {
        const double xk = x[k];
        const double* __restrict wrow = wt_scratch.row_data(k) + o0;
        for (std::size_t j = 0; j < kOTile; ++j) acc[j] += xk * wrow[j];
      }
      for (std::size_t j = 0; j < kOTile; ++j) y[o0 + j] = acc[j] + bias[o0 + j];
    }
    if (o0 < on) {
      const std::size_t width = on - o0;
      double acc[kOTile];
      for (std::size_t j = 0; j < width; ++j) acc[j] = 0.0;
      for (std::size_t k = 0; k < in; ++k) {
        const double xk = x[k];
        const double* __restrict wrow = wt_scratch.row_data(k) + o0;
        for (std::size_t j = 0; j < width; ++j) acc[j] += xk * wrow[j];
      }
      for (std::size_t j = 0; j < width; ++j) y[o0 + j] = acc[j] + bias[o0 + j];
    }
  }
}

/// kL doubles as one GCC vector, the variant's register width: GCC lowers
/// a vector wider than the target's registers through memory.
template <std::size_t kL>
struct LanesOf {
  typedef double type __attribute__((vector_size(kL * sizeof(double))));
};

/// dW, the kL outputs [o0, o0 + kL) by the inputs [k0, k0 + kK): the
/// accumulators hold that block of dW^T, one vector of outputs per input.
/// Each lane adds dY(r, o) * X(r, k) for r ascending, and keeps its old sum
/// instead where dY(r, o) is +0.0 or -0.0 (a NaN dY is added): the skip
/// rule of linear_backward. kK is the input tile width, kDwTile or 0 for
/// the runtime-width remainder `kn`.
template <std::size_t kL, std::size_t kK>
[[gnu::always_inline]] inline void weight_grad_tile(const Matrix& input, const Matrix& grad_output,
                                                    std::size_t o0, std::size_t k0,
                                                    std::size_t kn, Matrix& weight_grad) {
  using Lanes = typename LanesOf<kL>::type;
  const std::size_t kw = kK != 0 ? kK : kn;
  // Lanes move through `column` by memcpy: indexing a lane by a runtime
  // index would keep the accumulators in memory.
  Lanes acc[kDwTile];
  double column[kL];
  for (std::size_t kk = 0; kk < kw; ++kk) {
    for (std::size_t j = 0; j < kL; ++j) column[j] = weight_grad(o0 + j, k0 + kk);
    std::memcpy(&acc[kk], column, sizeof(Lanes));
  }
  for (std::size_t r = 0; r < input.rows(); ++r) {
    Lanes g;
    std::memcpy(&g, grad_output.row_data(r) + o0, sizeof g);
    const auto keep = g != 0.0;
    const double* __restrict x = input.row_data(r) + k0;
    for (std::size_t kk = 0; kk < kw; ++kk) {
      const Lanes sum = acc[kk] + g * x[kk];
      acc[kk] = keep ? sum : acc[kk];
    }
  }
  for (std::size_t kk = 0; kk < kw; ++kk) {
    std::memcpy(column, &acc[kk], sizeof(Lanes));
    for (std::size_t j = 0; j < kL; ++j) weight_grad(o0 + j, k0 + kk) = column[j];
  }
}

/// Compacts the `count` values v[0], v[stride], v[2 * stride], ... to
/// their nonzero terms, in order: coeff[t] is the value and row[t] the
/// operand row `base + i * base_stride` of value i. Branch-free: every slot
/// is written, and the count advances past a nonzero (NaN included) only.
/// Returns the number of terms.
[[gnu::always_inline]] inline std::size_t compact_terms(const double* v, std::size_t stride,
                                                        std::size_t count, const double* base,
                                                        std::size_t base_stride,
                                                        BackwardScratch& scratch) {
  double* __restrict coeff = scratch.coeff.data();
  const double** __restrict row = scratch.row.data();
  std::size_t m = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double g = v[i * stride];
    coeff[m] = g;
    row[m] = base + i * base_stride;
    m += g != 0.0;
  }
  return m;
}

/// One output tile of a compacted sum: out[k0 + j] for j in [0, width)
/// adds coeff[t] * row[t][k0 + j] for the m terms in order, onto its old
/// value if `accumulate`, else onto +0.0. The accumulators stay in
/// registers. kWidth is the tile width, or 0 for the runtime-width
/// remainder.
template <std::size_t kWidth>
[[gnu::always_inline]] inline void terms_tile(const BackwardScratch& scratch, std::size_t m,
                                              std::size_t k0, std::size_t width, bool accumulate,
                                              double* __restrict out) {
  const double* __restrict coeff = scratch.coeff.data();
  const double* const* __restrict row = scratch.row.data();
  const std::size_t w = kWidth != 0 ? kWidth : width;
  double acc[kOTile];
  for (std::size_t j = 0; j < w; ++j) acc[j] = accumulate ? out[k0 + j] : 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    const double c = coeff[t];
    const double* __restrict x = row[t] + k0;
    for (std::size_t j = 0; j < w; ++j) acc[j] += c * x[j];
  }
  for (std::size_t j = 0; j < w; ++j) out[k0 + j] = acc[j];
}

/// The compacted sum over all `in` elements of row `out`.
[[gnu::always_inline]] inline void sum_terms(const BackwardScratch& scratch, std::size_t m,
                                             std::size_t in, bool accumulate, double* out) {
  std::size_t k0 = 0;
  for (; k0 + kOTile <= in; k0 += kOTile) {
    terms_tile<kOTile>(scratch, m, k0, kOTile, accumulate, out);
  }
  if (k0 < in) terms_tile<0>(scratch, m, k0, in - k0, accumulate, out);
}

/// Training backward. Every chain skips exactly the terms whose dY is +0.0
/// or -0.0 (a NaN dY is kept), the rule every trained weight was produced
/// under, but without a branch on dY: about half the hidden gradients are
/// ReLU zeros, in a pattern that changes every step, so a branch would
/// mispredict about half the time.
///   db(o) adds dY(r, o) for r ascending, zeros included.
///   dW(o, k) accumulates in place, dY(r, o) * X(r, k) for r ascending.
///     From zero_grad()'s +0.0 that is the sum a fresh dY^T X would hold.
///     Outputs in groups of kL, a vector register, take the per-lane
///     select of weight_grad_tile; the rest (all of a thin layer's) compact
///     their column of dY to its nonzero terms and sum only those.
///   dX(r, k) is dY(r, o) * W(o, k) for o ascending from +0.0, over the
///     nonzero terms of row r of dY.
template <std::size_t kL>
[[gnu::always_inline]] inline void linear_backward(const Matrix& weight, const Matrix& input,
                                                   const Matrix& grad_output, Matrix& weight_grad,
                                                   Matrix& bias_grad, Matrix* grad_input,
                                                   BackwardScratch& scratch) {
  const std::size_t n = input.rows();
  const std::size_t in = weight.cols();
  const std::size_t on = weight.rows();
  assert(grad_output.cols() == on && input.cols() == in);
  assert(grad_output.rows() == n);
  scratch.coeff.resize(std::max(n, on));
  scratch.row.resize(std::max(n, on));

  double* __restrict db = bias_grad.row_data(0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* __restrict dy = grad_output.row_data(r);
    for (std::size_t o = 0; o < on; ++o) db[o] += dy[o];
  }

  std::size_t o = 0;
  for (; o + kL <= on; o += kL) {
    std::size_t k0 = 0;
    for (; k0 + kDwTile <= in; k0 += kDwTile) {
      weight_grad_tile<kL, kDwTile>(input, grad_output, o, k0, kDwTile, weight_grad);
    }
    if (k0 < in) weight_grad_tile<kL, 0>(input, grad_output, o, k0, in - k0, weight_grad);
  }
  for (; o < on; ++o) {
    const std::size_t m =
        compact_terms(grad_output.row_data(0) + o, on, n, input.row_data(0), in, scratch);
    sum_terms(scratch, m, in, /*accumulate=*/true, weight_grad.row_data(o));
  }

  if (grad_input == nullptr) return;
  grad_input->reshape(n, in);  // every element is overwritten
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t m = compact_terms(grad_output.row_data(r), 1, on, weight.row_data(0), in,
                                        scratch);
    sum_terms(scratch, m, in, /*accumulate=*/false, grad_input->row_data(r));
  }
}

/// Inference, one output tile of a wide layer for two rows: outputs
/// [o0, o0 + width) of rows x0 and x1 into y0 and y1. Each W^T row load
/// feeds both rows' accumulators, which stay in registers across k. Every
/// output starts from its bias and adds k ascending, the chain of the
/// scalar Mlp::predict; ReLU is its expression, max(acc, 0.0), in the
/// store. kWidth is the tile width, or 0 for the runtime-width remainder.
template <std::size_t kWidth>
[[gnu::always_inline]] inline void infer_tile(const double* __restrict x0,
                                              const double* __restrict x1, const Matrix& wt,
                                              const double* __restrict bias, std::size_t o0,
                                              std::size_t width, bool relu, double* __restrict y0,
                                              double* __restrict y1) {
  const std::size_t w = kWidth != 0 ? kWidth : width;
  double acc0[kOTile];
  double acc1[kOTile];
  for (std::size_t j = 0; j < w; ++j) acc0[j] = acc1[j] = bias[o0 + j];
  for (std::size_t k = 0; k < wt.rows(); ++k) {
    const double* __restrict wrow = wt.row_data(k) + o0;
    const double a0 = x0[k];
    const double a1 = x1[k];
    for (std::size_t j = 0; j < w; ++j) {
      acc0[j] += a0 * wrow[j];
      acc1[j] += a1 * wrow[j];
    }
  }
  for (std::size_t j = 0; j < w; ++j) {
    y0[o0 + j] = relu ? std::max(acc0[j], 0.0) : acc0[j];
    y1[o0 + j] = relu ? std::max(acc1[j], 0.0) : acc1[j];
  }
}

/// Inference, one layer for a block of `rows` (1..kRows) rows: src rows
/// (stride `in`) to dst rows (stride `on`). A missing partner row repeats
/// the block's last row, so every kernel runs at its full, compile-time
/// row count; what a repeated row computes lands in an unused dst row (wide
/// layers) or is never stored (thin layers).
[[gnu::always_inline]] inline void infer_layer(const Linear& layer, const Matrix& wt,
                                               std::size_t rows, bool relu, const double* src,
                                               double* dst) {
  const std::size_t in = layer.in_features();
  const std::size_t on = layer.out_features();
  const double* bias = layer.bias().row_data(0);

  if (on >= kRows) {
    for (std::size_t r = 0; r < rows; r += 2) {
      const double* x0 = src + r * in;
      const double* x1 = r + 1 < rows ? x0 + in : x0;
      double* y0 = dst + r * on;
      double* y1 = y0 + on;  // exists: odd `rows` < kRows
      std::size_t o0 = 0;
      for (; o0 + kOTile <= on; o0 += kOTile) {
        infer_tile<kOTile>(x0, x1, wt, bias, o0, kOTile, relu, y0, y1);
      }
      if (o0 < on) infer_tile<0>(x0, x1, wt, bias, o0, on - o0, relu, y0, y1);
    }
    return;
  }

  // Thin layers (the regression head): the eight rows' chains retire
  // together, as in the training kernel, each in its own k order.
  const double* x[kRows];
  for (std::size_t j = 0; j < kRows; ++j) x[j] = src + std::min(j, rows - 1) * in;
  for (std::size_t o = 0; o < on; ++o) {
    const double* __restrict wrow = layer.weight().row_data(o);
    double acc[kRows];
    for (std::size_t j = 0; j < kRows; ++j) acc[j] = bias[o];
    for (std::size_t k = 0; k < in; ++k) {
      const double wk = wrow[k];
      for (std::size_t j = 0; j < kRows; ++j) acc[j] += wk * x[j][k];
    }
    for (std::size_t j = 0; j < rows; ++j) dst[j * on + o] = relu ? std::max(acc[j], 0.0) : acc[j];
  }
}

[[gnu::always_inline]] inline void infer(const std::vector<Linear>& layers, const Matrix& input,
                                         Matrix& out, BatchScratch& scratch) {
  assert(!layers.empty() && input.cols() == layers.front().in_features());
  assert(&input != &out && "infer_into: output aliases the input");
  const std::size_t n = input.rows();
  const std::size_t on_last = layers.back().out_features();

  // Stage each wide layer's W^T (in x out) so a tile's weight row is
  // contiguous. The copy is O(in*on) against the O(n*in*on) product.
  std::size_t widest = 0;
  scratch.wt.resize(layers.size());
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const Matrix& w = layers[li].weight();
    widest = std::max(widest, w.rows());
    if (w.rows() < kRows) continue;
    Matrix& wt = scratch.wt[li];
    wt.reshape(w.cols(), w.rows());
    for (std::size_t o = 0; o < w.rows(); ++o) {
      for (std::size_t k = 0; k < w.cols(); ++k) wt(k, o) = w(o, k);
    }
  }
  scratch.a.reshape(kRows, widest);
  scratch.b.reshape(kRows, widest);
  out.reshape(n, on_last);

  // Each block of kRows rows runs through every layer before the next
  // block starts, ping-ponging between the two block buffers, so its
  // activations never leave L1. Layer 0 reads the input rows in place.
  for (std::size_t r0 = 0; r0 < n; r0 += kRows) {
    const std::size_t rows = std::min(kRows, n - r0);
    const double* src = input.row_data(r0);
    double* buffers[2] = {scratch.a.row_data(0), scratch.b.row_data(0)};
    for (std::size_t li = 0; li < layers.size(); ++li) {
      double* dst = buffers[li % 2];
      infer_layer(layers[li], scratch.wt[li], rows, li + 1 < layers.size(), src, dst);
      src = dst;
    }
    std::copy_n(src, rows * on_last, out.row_data(r0));
  }
}

/// The expression of the single-sample Normalizer::transform_inplace, so
/// batched and scalar normalization agree bit for bit.
[[gnu::always_inline]] inline void standardize(const Matrix& data, const std::vector<double>& mean,
                                               const std::vector<double>& stddev, Matrix& out) {
  assert(data.cols() == mean.size() && data.cols() == stddev.size());
  assert(&data != &out && "transform_into: output aliases the input");
  out.reshape(data.rows(), data.cols());  // every element is overwritten
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double* src = data.row_data(r);
    double* dst = out.row_data(r);
    for (std::size_t c = 0; c < data.cols(); ++c) dst[c] = (src[c] - mean[c]) / stddev[c];
  }
}

/// Adam::step's element update, in the expression every trained weight was
/// produced with. Every lane is one parameter, so vectorizing it reorders
/// nothing, and each operation (sqrt included) is correctly rounded.
[[gnu::always_inline]] inline void adam_update(const AdamConfig& config, double bias_correction1,
                                               double bias_correction2, double* __restrict param,
                                               const double* __restrict grad,
                                               double* __restrict m, double* __restrict v,
                                               std::size_t size) {
  const double lr = config.learning_rate;
  const double beta1 = config.beta1;
  const double beta2 = config.beta2;
  const double epsilon = config.epsilon;
  const double weight_decay = config.weight_decay;
  for (std::size_t i = 0; i < size; ++i) {
    const double g = grad[i] + weight_decay * param[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
    const double m_hat = m[i] / bias_correction1;
    const double v_hat = v[i] / bias_correction2;
    param[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

/// One variant: the kernels above compiled under the function attribute
/// `attr`, whose vector registers hold `lanes` doubles, gathered into a
/// KernelVariant named `label`.
#define VERIHVAC_KERNEL_VARIANT(ns, attr, lanes, label, is_supported)                             \
  namespace ns {                                                                                  \
  attr void linear_forward(const Matrix& weight, const Matrix& bias, const Matrix& input,         \
                           Matrix& out, Matrix& wt) {                                             \
    nn::linear_forward(weight, bias, input, out, wt);                                             \
  }                                                                                               \
  attr void linear_backward(const Matrix& weight, const Matrix& input, const Matrix& grad_output, \
                            Matrix& weight_grad, Matrix& bias_grad, Matrix* grad_input,           \
                            BackwardScratch& scratch) {                                           \
    nn::linear_backward<lanes>(weight, input, grad_output, weight_grad, bias_grad, grad_input,     \
                               scratch);                                                          \
  }                                                                                               \
  attr void infer(const std::vector<Linear>& layers, const Matrix& input, Matrix& out,            \
                  BatchScratch& scratch) {                                                        \
    nn::infer(layers, input, out, scratch);                                                       \
  }                                                                                               \
  attr void standardize(const Matrix& data, const std::vector<double>& mean,                      \
                        const std::vector<double>& stddev, Matrix& out) {                         \
    nn::standardize(data, mean, stddev, out);                                                     \
  }                                                                                               \
  attr void adam_update(const AdamConfig& config, double bias_correction1,                        \
                        double bias_correction2, double* param, const double* grad, double* m,    \
                        double* v, std::size_t size) {                                            \
    nn::adam_update(config, bias_correction1, bias_correction2, param, grad, m, v, size);         \
  }                                                                                               \
  constexpr KernelVariant kVariant{label, is_supported, linear_forward, linear_backward,          \
                                   infer, standardize,  adam_update};                             \
  }

bool always_supported() { return true; }
VERIHVAC_KERNEL_VARIANT(baseline, , 2, "baseline", always_supported)

#if defined(__x86_64__)
bool cpu_supports_v3() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v3");
}
bool cpu_supports_v4() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4");
}
// prefer-vector-width=512: GCC otherwise keeps AVX-512 code at 256 bits.
// The inference kernel holds two rows' 32 output accumulators in
// registers, which spill at 16 ymm but fit in 32 zmm.
VERIHVAC_KERNEL_VARIANT(v3, __attribute__((target("arch=x86-64-v3"))), 4, "x86-64-v3",
                        cpu_supports_v3)
VERIHVAC_KERNEL_VARIANT(v4, __attribute__((target("arch=x86-64-v4,prefer-vector-width=512"))), 8,
                        "x86-64-v4", cpu_supports_v4)
constexpr KernelVariant kVariants[] = {baseline::kVariant, v3::kVariant, v4::kVariant};
#else
constexpr KernelVariant kVariants[] = {baseline::kVariant};
#endif

}  // namespace

std::span<const KernelVariant> kernel_variants() { return kVariants; }

const KernelVariant& active_kernels() {
  static const KernelVariant& chosen = []() -> const KernelVariant& {
    const auto widest = std::find_if(std::rbegin(kVariants), std::rend(kVariants),
                                     [](const KernelVariant& v) { return v.supported(); });
    log_debug("nn kernels: ", widest->name);
    return *widest;
  }();
  return chosen;
}

}  // namespace verihvac::nn
