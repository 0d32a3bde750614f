/**
 * @file
 * Kernel-backend equivalence suite, parameterized over the optimized
 * backend once per ISA copy (tests/backends_under_test.h): each
 * KernelBackend operation is run through the reference oracle and the
 * backend under test on the same inputs — including odd, prime, and
 * micro-kernel-aligned shapes that exercise every remainder path of the
 * blocked kernels — and the results must agree to tight tolerance;
 * LayerNorm, the optimized A^T * B product and, at the GRANITE shapes, the
 * plain product into a zero output must agree bit for bit.
 * The optimized backend's baseline and AVX2 copies must agree with each
 * other bit for bit on every kernel. A row's matmul result must not
 * depend on the row count of the call.
 * Also gradient-checks the fused tape ops (Linear, ConcatGathered)
 * against central finite differences under the reference and optimized
 * backends, pins known values of the basic ops on the process-default
 * backend, and verifies backend selection plumbing (default, explicit
 * kinds, tape routing).
 */
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "backends_under_test.h"
#include "base/rng.h"
#include "gtest/gtest.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/kernels/optimized_backend.h"
#include "ml/kernels/reference_backend.h"
#include "ml/parameter.h"
#include "ml/tape.h"

namespace granite::ml {
namespace {

Tensor RandomTensor(int rows, int cols, Rng& rng, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor tensor(rows, cols);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    tensor.data()[i] = rng.NextUniform(lo, hi);
  }
  return tensor;
}

std::vector<int> RandomIndices(std::size_t count, int bound, Rng& rng) {
  std::vector<int> indices(count);
  for (std::size_t i = 0; i < count; ++i) {
    indices[i] = static_cast<int>(rng.NextBounded(bound));
  }
  return indices;
}

/** abs/rel closeness with a tolerance scaled by the reduction length. */
void ExpectAllClose(const Tensor& a, const Tensor& b, float tolerance,
                    const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    const float scale = std::max({1.0f, std::abs(x), std::abs(y)});
    ASSERT_NEAR(x, y, tolerance * scale)
        << label << " element " << i << " of " << a.size();
  }
}

/** Exact equality, element by element. */
void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << label << " element " << i << " of " << a.size();
  }
}

/** (m, k, n) shapes covering scalar, odd, prime, and blocked cases: the
 * micro-kernel tiles are 4x16 with k-blocks of 256, so these hit full
 * tiles, row/column remainders, and multiple k-blocks. */
struct MatMulShape {
  int m, k, n;
};

const MatMulShape kMatMulShapes[] = {
    {1, 1, 1},    {2, 3, 4},    {4, 16, 16},  {5, 17, 16},
    {13, 17, 11}, {31, 29, 37}, {64, 64, 64}, {8, 300, 20},
    {67, 263, 33}, {3, 1, 47},
};

class KernelEquivalenceTest
    : public ::testing::TestWithParam<BackendUnderTest> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !DispatchesAvx2Copy()) {
      GTEST_SKIP() << "this CPU has no AVX2";
    }
  }

  const KernelBackend& reference() {
    return GetKernelBackend(KernelBackendKind::kReference);
  }
  /** The backend under test, compared against the reference oracle. */
  const KernelBackend& backend() { return GetParam().backend(); }

  Rng rng_{20260731};
};

TEST_P(KernelEquivalenceTest, MatMulAcc) {
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a = RandomTensor(shape.m, shape.k, rng_);
    const Tensor b = RandomTensor(shape.k, shape.n, rng_);
    // Accumulation semantics: both backends start from the same nonzero
    // output.
    const Tensor seed = RandomTensor(shape.m, shape.n, rng_);
    Tensor ref = seed;
    Tensor opt = seed;
    reference().MatMulAcc(a, b, ref);
    backend().MatMulAcc(a, b, opt);
    ExpectAllClose(ref, opt, 1e-4f, "MatMulAcc");
  }
}

/** Extra (m, k, n) shapes for A^T * B (A is k x m): the optimized tiles
 * are 4 output rows x 16 columns with an 8-column tile for the remainder,
 * so these put m on and off a multiple of 4 and n on and off multiples of
 * 8 and 16, down to n = 1. */
const MatMulShape kTransposeAShapes[] = {
    {4, 9, 8},    {6, 7, 1},  {9, 21, 8},    {11, 40, 24},
    {17, 50, 16}, {8, 33, 9}, {64, 120, 16}, {7, 3, 15},
    {5, 40, 24},  {8, 64, 32}, {3, 20, 40},
};

/** Zeroes parts of A the way ReLU activations do, in the three patterns
 * the reference's per-element zero skip sees: a whole row of A (one k
 * step skipped for every output row), the 4 columns one output tile reads
 * at one k step, and scattered single elements. */
void PlantZeros(Tensor& a, Rng& rng) {
  if (a.rows() > 1) {
    for (int c = 0; c < a.cols(); ++c) a.at(1, c) = 0.0f;
  }
  if (a.rows() > 2 && a.cols() >= 8) {
    for (int c = 4; c < 8; ++c) a.at(2, c) = 0.0f;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.NextBounded(4) == 0) a.data()[i] = 0.0f;
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposeAAcc) {
  // The optimized dW product sums every element sequentially over k from
  // its seeded value, exactly like the reference, so it must match bit
  // for bit (zero products it does not skip leave a finite sum
  // unchanged).
  std::vector<MatMulShape> shapes(std::begin(kMatMulShapes),
                                  std::end(kMatMulShapes));
  shapes.insert(shapes.end(), std::begin(kTransposeAShapes),
                std::end(kTransposeAShapes));
  for (const MatMulShape& shape : shapes) {
    for (const bool sparse : {false, true}) {
      Tensor a = RandomTensor(shape.k, shape.m, rng_);
      if (sparse) PlantZeros(a, rng_);
      const Tensor b = RandomTensor(shape.k, shape.n, rng_);
      const Tensor seed = RandomTensor(shape.m, shape.n, rng_);
      Tensor ref = seed;
      Tensor opt = seed;
      reference().MatMulTransposeAAcc(a, b, ref);
      backend().MatMulTransposeAAcc(a, b, opt);
      const std::string label =
          "MatMulTransposeAAcc " + std::to_string(shape.m) + "x" +
          std::to_string(shape.k) + "x" + std::to_string(shape.n) +
          (sparse ? " sparse" : " dense");
      ExpectBitIdentical(ref, opt, label);
    }
  }
}

/** The plain products a GRANITE step runs at embedding 16 and a batch of
 * 100 blocks: the 64 -> 16, 16 -> 16 and 48 -> 16 layers over a trainer
 * worker's rows, the 64 -> 16 layer over a serving batch and the packed
 * dX product of the 64 -> 16 layer; plus rows off the 4-row tile and the
 * deepest k inside one k-block. */
const MatMulShape kGnnMatMulShapes[] = {
    {1656, 64, 16}, {1656, 16, 16}, {1548, 48, 16}, {165, 64, 16},
    {1656, 16, 64}, {7, 48, 32},    {6, 256, 16},
};

TEST_P(KernelEquivalenceTest, MatMulAccIntoZeroIsBitIdenticalToReference) {
  // Into a zero-filled output with k inside one k-block (256), the
  // optimized tile's "sum the products from zero in ascending k, then add
  // once" and the reference's "add each product into the output in
  // ascending k" do the same roundings in the same order, so the bits
  // must agree (the reference's zero skip leaves the sums unchanged).
  for (const MatMulShape& shape : kGnnMatMulShapes) {
    for (const bool sparse : {false, true}) {
      Tensor a = RandomTensor(shape.m, shape.k, rng_);
      if (sparse) PlantZeros(a, rng_);
      const Tensor b = RandomTensor(shape.k, shape.n, rng_);
      Tensor ref(shape.m, shape.n);
      Tensor opt(shape.m, shape.n);
      reference().MatMulAcc(a, b, ref);
      backend().MatMulAcc(a, b, opt);
      ASSERT_EQ(std::memcmp(ref.data(), opt.data(), ref.size() * sizeof(float)),
                0)
          << "MatMulAcc " << shape.m << "x" << shape.k << "x" << shape.n
          << (sparse ? " sparse" : " dense");
    }
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposeBAcc) {
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a = RandomTensor(shape.m, shape.k, rng_);
    const Tensor b = RandomTensor(shape.n, shape.k, rng_);
    const Tensor seed = RandomTensor(shape.m, shape.n, rng_);
    Tensor ref = seed;
    Tensor opt = seed;
    reference().MatMulTransposeBAcc(a, b, ref);
    backend().MatMulTransposeBAcc(a, b, opt);
    ExpectAllClose(ref, opt, 1e-4f, "MatMulTransposeBAcc");
  }
}

TEST_P(KernelEquivalenceTest, LinearBias) {
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a = RandomTensor(shape.m, shape.k, rng_);
    const Tensor w = RandomTensor(shape.k, shape.n, rng_);
    const Tensor bias = RandomTensor(1, shape.n, rng_);
    Tensor ref(shape.m, shape.n);
    Tensor opt(shape.m, shape.n);
    reference().LinearBias(a, w, bias, ref);
    backend().LinearBias(a, w, bias, opt);
    ExpectAllClose(ref, opt, 1e-4f, "LinearBias");
  }
}

TEST_P(KernelEquivalenceTest, ElementwiseOps) {
  const int rows = 13;
  const int cols = 37;
  const Tensor a = RandomTensor(rows, cols, rng_);
  const Tensor b = RandomTensor(rows, cols, rng_, 0.5f, 2.0f);

  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                            BinaryOp::kDiv}) {
    Tensor ref(rows, cols);
    Tensor opt(rows, cols);
    reference().BinaryPointwise(op, a, b, ref);
    backend().BinaryPointwise(op, a, b, opt);
    ExpectAllClose(ref, opt, 1e-6f, "BinaryPointwise");
  }

  Tensor ref(rows, cols);
  Tensor opt(rows, cols);
  reference().ScaleInto(a, 2.5f, ref);
  backend().ScaleInto(a, 2.5f, opt);
  ExpectAllClose(ref, opt, 1e-6f, "ScaleInto");

  reference().AddScalarInto(a, -1.25f, ref);
  backend().AddScalarInto(a, -1.25f, opt);
  ExpectAllClose(ref, opt, 1e-6f, "AddScalarInto");

  const Tensor acc_seed = RandomTensor(rows, cols, rng_);
  Tensor ref_acc = acc_seed;
  Tensor opt_acc = acc_seed;
  reference().AccumulateAdd(a, ref_acc);
  backend().AccumulateAdd(a, opt_acc);
  ExpectAllClose(ref_acc, opt_acc, 1e-6f, "AccumulateAdd");

  reference().AccumulateScaled(a, -0.75f, ref_acc);
  backend().AccumulateScaled(a, -0.75f, opt_acc);
  ExpectAllClose(ref_acc, opt_acc, 1e-6f, "AccumulateScaled");

  reference().AccumulateMul(a, b, ref_acc);
  backend().AccumulateMul(a, b, opt_acc);
  ExpectAllClose(ref_acc, opt_acc, 1e-6f, "AccumulateMul");

  reference().AccumulateConstant(0.125f, ref_acc);
  backend().AccumulateConstant(0.125f, opt_acc);
  ExpectAllClose(ref_acc, opt_acc, 1e-6f, "AccumulateConstant");

  EXPECT_NEAR(reference().SumAll(a), backend().SumAll(a), 1e-4);
}

TEST_P(KernelEquivalenceTest, UnaryOpsForwardAndGrad) {
  const int rows = 7;
  const int cols = 53;
  const Tensor input = RandomTensor(rows, cols, rng_, -2.0f, 2.0f);
  const Tensor out_grad = RandomTensor(rows, cols, rng_);
  const float param = 0.8f;  // Huber delta.

  for (const UnaryOp op : {UnaryOp::kRelu, UnaryOp::kSigmoid, UnaryOp::kTanh,
                           UnaryOp::kAbs, UnaryOp::kSquare, UnaryOp::kHuber}) {
    Tensor ref(rows, cols);
    Tensor opt(rows, cols);
    reference().UnaryForward(op, input, ref, param);
    backend().UnaryForward(op, input, opt, param);
    ExpectAllClose(ref, opt, 1e-6f, "UnaryForward");

    const Tensor grad_seed = RandomTensor(rows, cols, rng_);
    Tensor ref_grad = grad_seed;
    Tensor opt_grad = grad_seed;
    reference().AccumulateUnaryGrad(op, input, ref, out_grad, ref_grad,
                                    param);
    backend().AccumulateUnaryGrad(op, input, opt, out_grad, opt_grad,
                                    param);
    ExpectAllClose(ref_grad, opt_grad, 1e-6f, "AccumulateUnaryGrad");
  }
}

TEST_P(KernelEquivalenceTest, BroadcastAndReductionOps) {
  const int rows = 29;
  const int cols = 31;
  const Tensor a = RandomTensor(rows, cols, rng_);
  const Tensor bias = RandomTensor(1, cols, rng_);
  const Tensor column = RandomTensor(rows, 1, rng_);

  Tensor ref(rows, cols);
  Tensor opt(rows, cols);
  reference().AddRowBroadcastInto(a, bias, ref);
  backend().AddRowBroadcastInto(a, bias, opt);
  ExpectAllClose(ref, opt, 1e-6f, "AddRowBroadcastInto");

  const Tensor sums_seed = RandomTensor(1, cols, rng_);
  Tensor ref_sums = sums_seed;
  Tensor opt_sums = sums_seed;
  reference().AccumulateColumnSums(a, ref_sums);
  backend().AccumulateColumnSums(a, opt_sums);
  ExpectAllClose(ref_sums, opt_sums, 1e-5f, "AccumulateColumnSums");

  reference().MulColumnBroadcastInto(a, column, ref);
  backend().MulColumnBroadcastInto(a, column, opt);
  ExpectAllClose(ref, opt, 1e-6f, "MulColumnBroadcastInto");

  const Tensor acc_seed = RandomTensor(rows, cols, rng_);
  Tensor ref_acc = acc_seed;
  Tensor opt_acc = acc_seed;
  reference().AccumulateMulColumnBroadcast(a, column, ref_acc);
  backend().AccumulateMulColumnBroadcast(a, column, opt_acc);
  ExpectAllClose(ref_acc, opt_acc, 1e-6f, "AccumulateMulColumnBroadcast");

  const Tensor dots_seed = RandomTensor(rows, 1, rng_);
  Tensor ref_dots = dots_seed;
  Tensor opt_dots = dots_seed;
  const Tensor b = RandomTensor(rows, cols, rng_);
  reference().AccumulateRowDots(a, b, ref_dots);
  backend().AccumulateRowDots(a, b, opt_dots);
  ExpectAllClose(ref_dots, opt_dots, 1e-5f, "AccumulateRowDots");
}

TEST_P(KernelEquivalenceTest, GatherScatterConcatOps) {
  const int table_rows = 23;
  const int cols = 19;
  const int gathered = 41;
  const Tensor table = RandomTensor(table_rows, cols, rng_);
  const std::vector<int> indices = RandomIndices(gathered, table_rows, rng_);

  // Gather into a column block of a wider output.
  const int offset = 7;
  const Tensor out_seed = RandomTensor(gathered, cols + 11, rng_);
  Tensor ref_out = out_seed;
  Tensor opt_out = out_seed;
  reference().GatherRowsAcc(table, indices, ref_out, offset);
  backend().GatherRowsAcc(table, indices, opt_out, offset);
  ExpectAllClose(ref_out, opt_out, 1e-6f, "GatherRowsAcc");

  // Scatter-add from a column block back into the table shape.
  const Tensor rows = RandomTensor(gathered, cols + 11, rng_);
  const Tensor table_seed = RandomTensor(table_rows, cols, rng_);
  Tensor ref_table = table_seed;
  Tensor opt_table = table_seed;
  reference().ScatterAddRows(rows, indices, ref_table, offset);
  backend().ScatterAddRows(rows, indices, opt_table, offset);
  ExpectAllClose(ref_table, opt_table, 1e-5f, "ScatterAddRows");

  // Column-block accumulate.
  const Tensor src = RandomTensor(gathered, cols + 11, rng_);
  Tensor ref_dest = out_seed;
  Tensor opt_dest = out_seed;
  reference().AccumulateColumnBlock(src, 3, ref_dest, 5, cols);
  backend().AccumulateColumnBlock(src, 3, opt_dest, 5, cols);
  ExpectAllClose(ref_dest, opt_dest, 1e-6f, "AccumulateColumnBlock");
}

TEST_P(KernelEquivalenceTest, LayerNormIsBitIdenticalToReference) {
  // The tuned LayerNorm interleaves rows but keeps every row's sums and
  // the gain/bias reductions in the reference order, so it must match
  // the reference bit for bit — at row counts on and off the interleave
  // width and at the widths the model runs.
  const float epsilon = 1e-5f;
  for (const int rows : {1, 3, 4, 5, 17}) {
    for (const int cols : {16, 43, 48, 64}) {
      const std::string shape =
          std::to_string(rows) + "x" + std::to_string(cols);
      const Tensor x = RandomTensor(rows, cols, rng_, -3.0f, 3.0f);
      const Tensor gain = RandomTensor(1, cols, rng_, 0.5f, 1.5f);
      const Tensor bias = RandomTensor(1, cols, rng_);

      Tensor ref_out(rows, cols), ref_norm(rows, cols);
      Tensor opt_out(rows, cols), opt_norm(rows, cols);
      std::vector<float> ref_inv(rows), opt_inv(rows);
      reference().LayerNormForward(x, gain, bias, epsilon, ref_out,
                                   ref_norm, ref_inv);
      backend().LayerNormForward(x, gain, bias, epsilon, opt_out, opt_norm,
                                 opt_inv);
      ExpectBitIdentical(ref_out, opt_out, "LayerNormForward out " + shape);
      ExpectBitIdentical(ref_norm, opt_norm,
                         "LayerNormForward normalized " + shape);
      ASSERT_EQ(ref_inv, opt_inv) << "inv_stddev " << shape;

      // Accumulation semantics: every gradient starts from the same
      // nonzero seed.
      const Tensor out_grad = RandomTensor(rows, cols, rng_);
      const Tensor dx_seed = RandomTensor(rows, cols, rng_);
      const Tensor dgain_seed = RandomTensor(1, cols, rng_);
      const Tensor dbias_seed = RandomTensor(1, cols, rng_);
      Tensor ref_dx = dx_seed, opt_dx = dx_seed;
      Tensor ref_dgain = dgain_seed, opt_dgain = dgain_seed;
      Tensor ref_dbias = dbias_seed, opt_dbias = dbias_seed;
      reference().LayerNormBackward(out_grad, gain, ref_norm, ref_inv,
                                    &ref_dx, &ref_dgain, &ref_dbias);
      backend().LayerNormBackward(out_grad, gain, opt_norm, opt_inv, &opt_dx,
                                  &opt_dgain, &opt_dbias);
      ExpectBitIdentical(ref_dx, opt_dx, "LayerNormBackward dx " + shape);
      ExpectBitIdentical(ref_dgain, opt_dgain,
                         "LayerNormBackward dgain " + shape);
      ExpectBitIdentical(ref_dbias, opt_dbias,
                         "LayerNormBackward dbias " + shape);

      // Each gradient alone (the others null) takes the same path.
      Tensor only_dx = dx_seed;
      backend().LayerNormBackward(out_grad, gain, opt_norm, opt_inv, &only_dx,
                                  nullptr, nullptr);
      ExpectBitIdentical(ref_dx, only_dx, "LayerNormBackward dx only " + shape);
      Tensor only_dgain = dgain_seed;
      backend().LayerNormBackward(out_grad, gain, opt_norm, opt_inv, nullptr,
                                  &only_dgain, nullptr);
      ExpectBitIdentical(ref_dgain, only_dgain,
                         "LayerNormBackward dgain only " + shape);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelEquivalenceTest,
                         ::testing::ValuesIn(BackendsUnderTest()),
                         BackendUnderTestName);

// ---- Row-position independence of the optimized matmul -------------------

TEST(OptimizedMatMulRowTest, LinearBiasRowDoesNotDependOnRowCount) {
  // A row's result must not depend on how many rows share the call: the
  // micro-kernel tiles 4 rows at a time, and a row left over after the
  // last full tile must be summed in the same order as a tiled one.
  // Width 8 is narrower than one 16-column sliver; 16 to 48 are not.
  const OptimizedBackend backend;
  Rng rng(20261016);
  const int k = 37;
  for (const int width : {8, 16, 24, 32, 48}) {
    const Tensor a = RandomTensor(13, k, rng);
    const Tensor w = RandomTensor(k, width, rng);
    const Tensor bias = RandomTensor(1, width, rng);
    Tensor all(13, width);
    backend.LinearBias(a, w, bias, all);
    for (const int rows : {5, 8}) {
      Tensor head_a(rows, k);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < k; ++c) head_a.at(r, c) = a.at(r, c);
      }
      Tensor head(rows, width);
      backend.LinearBias(head_a, w, bias, head);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < width; ++c) {
          ASSERT_EQ(head.at(r, c), all.at(r, c))
              << "width " << width << ", " << rows << " rows vs 13: row " << r
              << " column " << c;
        }
      }
    }
  }
}

// ---- The two ISA copies of the optimized backend -------------------------

/** Equal bit patterns, element by element: unlike ==, tells -0 from +0. */
void ExpectSameBits(const Tensor& a, const Tensor& b,
                    const std::string& label) {
  ASSERT_EQ(a.rows(), b.rows()) << label;
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)), 0)
        << label << " element " << i << " of " << a.size() << ": "
        << a.data()[i] << " vs " << b.data()[i];
  }
}

/** Values in [-1, 1) with about a quarter replaced by +0 and an eighth by
 * -0, so zero products, signed-zero sums and negative ReLU inputs all
 * occur. */
Tensor ZeroPlantedTensor(int rows, int cols, Rng& rng) {
  Tensor tensor = RandomTensor(rows, cols, rng);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const uint64_t pick = rng.NextBounded(8);
    if (pick < 2) tensor.data()[i] = 0.0f;
    if (pick == 2) tensor.data()[i] = -0.0f;
  }
  return tensor;
}

TEST(OptimizedIsaTest, CopiesAreBitIdentical) {
  // The AVX2 copy only changes instruction selection: every product and
  // sum keeps its own rounding and order, and FMA is never enabled. So
  // every overridden kernel must match the baseline copy bit for bit —
  // including MatMulAcc and LinearBias, which match the reference only to
  // tolerance. Accumulators start from seeded values (with zeros of both
  // signs); row counts sit on and off the 4-row tiles, widths on and off
  // the 8- and 16-column slivers and the vector widths.
  if (!DispatchesAvx2Copy()) GTEST_SKIP() << "this CPU has no AVX2";
  const KernelBackend& avx2 = GetKernelBackend(KernelBackendKind::kOptimized);
  const KernelBackend& baseline = BaselineCopyBackend();
  Rng rng(20261017);
  const auto both = [&](const std::string& label, const Tensor& seed,
                        const std::function<void(const KernelBackend&,
                                                 Tensor&)>& op) {
    Tensor from_avx2 = seed;
    Tensor from_baseline = seed;
    op(avx2, from_avx2);
    op(baseline, from_baseline);
    ExpectSameBits(from_avx2, from_baseline, label);
  };
  for (const int rows : {1, 2, 3, 4, 5, 6, 7, 17}) {
    for (const int width : {1, 7, 8, 15, 16, 17, 24, 32, 40, 48, 64}) {
      const std::string shape = std::string(" ") + std::to_string(rows) +
                                "x" + std::to_string(width);
      const Tensor x = ZeroPlantedTensor(rows, width, rng);
      const Tensor y = ZeroPlantedTensor(rows, width, rng);
      const Tensor divisor = RandomTensor(rows, width, rng, 0.5f, 2.0f);
      const Tensor seed = ZeroPlantedTensor(rows, width, rng);
      const Tensor row = ZeroPlantedTensor(1, width, rng);

      // Matrix products, at depths inside and across one k-block.
      for (const int k : {1, 9, 37, 300}) {
        const std::string mk = shape + " k=" + std::to_string(k);
        const Tensor a = ZeroPlantedTensor(rows, k, rng);
        const Tensor b = ZeroPlantedTensor(k, width, rng);
        const Tensor at = ZeroPlantedTensor(k, rows, rng);
        const Tensor bt = ZeroPlantedTensor(width, k, rng);
        both("MatMulAcc" + mk, seed, [&](const KernelBackend& be, Tensor& o) {
          be.MatMulAcc(a, b, o);
        });
        both("MatMulTransposeAAcc" + mk, seed,
             [&](const KernelBackend& be, Tensor& o) {
               be.MatMulTransposeAAcc(at, b, o);
             });
        both("MatMulTransposeBAcc" + mk, seed,
             [&](const KernelBackend& be, Tensor& o) {
               be.MatMulTransposeBAcc(a, bt, o);
             });
        both("LinearBias" + mk, seed, [&](const KernelBackend& be, Tensor& o) {
          be.LinearBias(a, b, row, o);
        });
      }

      // Element-wise, broadcast and reduction kernels.
      for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub,
                                BinaryOp::kMul, BinaryOp::kDiv}) {
        const Tensor& rhs = op == BinaryOp::kDiv ? divisor : y;
        both("BinaryPointwise" + shape, seed,
             [&](const KernelBackend& be, Tensor& o) {
               be.BinaryPointwise(op, x, rhs, o);
             });
      }
      both("ScaleInto" + shape, seed, [&](const KernelBackend& be, Tensor& o) {
        be.ScaleInto(x, -0.75f, o);
      });
      both("AddScalarInto" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AddScalarInto(x, 0.0f, o);
           });
      both("AccumulateAdd" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) { be.AccumulateAdd(x, o); });
      both("AccumulateScaled" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AccumulateScaled(x, 1.5f, o);
           });
      both("AccumulateMul" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AccumulateMul(x, y, o);
           });
      for (const UnaryOp op :
           {UnaryOp::kRelu, UnaryOp::kSigmoid, UnaryOp::kTanh, UnaryOp::kAbs,
            UnaryOp::kSquare, UnaryOp::kHuber}) {
        const std::string label =
            " op " + std::to_string(static_cast<int>(op)) + shape;
        Tensor forward(rows, width);
        GetKernelBackend(KernelBackendKind::kReference)
            .UnaryForward(op, x, forward, 0.8f);
        both("UnaryForward" + label, seed,
             [&](const KernelBackend& be, Tensor& o) {
               be.UnaryForward(op, x, o, 0.8f);
             });
        both("AccumulateUnaryGrad" + label, seed,
             [&](const KernelBackend& be, Tensor& o) {
               be.AccumulateUnaryGrad(op, x, forward, y, o, 0.8f);
             });
      }
      both("AddRowBroadcastInto" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AddRowBroadcastInto(x, row, o);
           });
      both("AccumulateColumnSums" + shape, row,
           [&](const KernelBackend& be, Tensor& o) {
             be.AccumulateColumnSums(x, o);
           });

      // Gather, scatter and column-block accumulate, into and out of a
      // column block.
      const std::vector<int> indices = RandomIndices(rows + 6, rows, rng);
      const Tensor wide_seed =
          ZeroPlantedTensor(static_cast<int>(indices.size()), width + 3, rng);
      both("GatherRowsAcc" + shape, wide_seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.GatherRowsAcc(x, indices, o, 3);
           });
      both("ScatterAddRows" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.ScatterAddRows(wide_seed, indices, o, 3);
           });
      const Tensor block_seed = ZeroPlantedTensor(rows, width + 3, rng);
      both("AccumulateColumnBlock into" + shape, block_seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AccumulateColumnBlock(x, 0, o, 2, width);
           });
      both("AccumulateColumnBlock out of" + shape, seed,
           [&](const KernelBackend& be, Tensor& o) {
             be.AccumulateColumnBlock(block_seed, 3, o, 0, width);
           });

      // LayerNorm forward (every output) and backward (every gradient).
      const Tensor gain = RandomTensor(1, width, rng, 0.5f, 1.5f);
      Tensor normalized[2] = {Tensor(rows, width), Tensor(rows, width)};
      Tensor out[2] = {Tensor(rows, width), Tensor(rows, width)};
      std::vector<float> inv_stddev[2] = {std::vector<float>(rows),
                                          std::vector<float>(rows)};
      const KernelBackend* copies[2] = {&avx2, &baseline};
      for (int c = 0; c < 2; ++c) {
        copies[c]->LayerNormForward(x, gain, row, 1e-5f, out[c],
                                    normalized[c], inv_stddev[c]);
      }
      ExpectSameBits(out[0], out[1], "LayerNormForward out" + shape);
      ExpectSameBits(normalized[0], normalized[1],
                     "LayerNormForward normalized" + shape);
      ASSERT_EQ(std::memcmp(inv_stddev[0].data(), inv_stddev[1].data(),
                            rows * sizeof(float)),
                0)
          << "LayerNormForward inv_stddev" << shape;
      Tensor dx[2] = {seed, seed};
      Tensor dgain[2] = {row, row};
      Tensor dbias[2] = {row, row};
      for (int c = 0; c < 2; ++c) {
        copies[c]->LayerNormBackward(y, gain, normalized[c], inv_stddev[c],
                                     &dx[c], &dgain[c], &dbias[c]);
      }
      ExpectSameBits(dx[0], dx[1], "LayerNormBackward dx" + shape);
      ExpectSameBits(dgain[0], dgain[1], "LayerNormBackward dgain" + shape);
      ExpectSameBits(dbias[0], dbias[1], "LayerNormBackward dbias" + shape);
    }
  }
}

// ---- Gradient checks for the new fused tape ops --------------------------

/** Finite-difference check of `build`'s gradient w.r.t. `parameter` on a
 * tape running `backend` (mirrors the helper in ml_grad_test.cc). */
void CheckParameterGradient(const KernelBackend& backend,
                            Parameter* parameter,
                            const std::function<Var(Tape&)>& build,
                            float step = 1e-2f, float tolerance = 2e-2f) {
  parameter->ZeroGrad();
  {
    Tape tape(&backend);
    tape.Backward(build(tape));
  }
  const Tensor analytic = parameter->grad;

  for (std::size_t i = 0; i < parameter->value.size(); ++i) {
    const float saved = parameter->value.data()[i];
    parameter->value.data()[i] = saved + step;
    double loss_plus;
    {
      Tape tape(&backend);
      loss_plus = tape.value(build(tape)).scalar();
    }
    parameter->value.data()[i] = saved - step;
    double loss_minus;
    {
      Tape tape(&backend);
      loss_minus = tape.value(build(tape)).scalar();
    }
    parameter->value.data()[i] = saved;
    const double numeric = (loss_plus - loss_minus) / (2.0 * step);
    const double scale =
        std::max({1.0, std::abs(numeric),
                  std::abs(static_cast<double>(analytic.data()[i]))});
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance * scale)
        << backend.name() << " parameter " << parameter->name << " element "
        << i;
  }
}

class FusedOpGradTest : public ::testing::TestWithParam<KernelBackendKind> {
 protected:
  const KernelBackend& backend() { return GetKernelBackend(GetParam()); }

  Rng rng_{424242};
  ParameterStore store_{77};
};

TEST_P(FusedOpGradTest, LinearAllInputs) {
  Parameter* a = store_.Create("a", 5, 4, Initializer::kGlorotUniform);
  Parameter* w = store_.Create("w", 4, 3, Initializer::kGlorotUniform);
  Parameter* bias = store_.Create("bias", 1, 3, Initializer::kGlorotUniform);
  for (Parameter* parameter : {a, w, bias}) {
    CheckParameterGradient(backend(), parameter, [&](Tape& tape) {
      return tape.SumAll(tape.Square(tape.Linear(
          tape.Param(a), tape.Param(w), tape.Param(bias))));
    });
  }
}

TEST_P(FusedOpGradTest, LinearMatchesUnfusedComposition) {
  Parameter* a = store_.Create("a", 6, 5, Initializer::kGlorotUniform);
  Parameter* w = store_.Create("w", 5, 7, Initializer::kGlorotUniform);
  Parameter* bias = store_.Create("bias", 1, 7, Initializer::kGlorotUniform);
  Tape tape(&backend());
  const Var fused =
      tape.Linear(tape.Param(a), tape.Param(w), tape.Param(bias));
  const Var composed = tape.AddRowBroadcast(
      tape.MatMul(tape.Param(a), tape.Param(w)), tape.Param(bias));
  EXPECT_TRUE(tape.value(fused).AllClose(tape.value(composed), 1e-5f));
}

TEST_P(FusedOpGradTest, ConcatGatheredAllInputs) {
  Parameter* table = store_.Create("table", 6, 3, Initializer::kGlorotUniform);
  Parameter* direct = store_.Create("direct", 4, 2,
                                    Initializer::kGlorotUniform);
  const std::vector<int> indices = {5, 0, 3, 3};
  for (Parameter* parameter : {table, direct}) {
    CheckParameterGradient(backend(), parameter, [&](Tape& tape) {
      const Var concat = tape.ConcatGathered(
          {{tape.Param(direct), nullptr}, {tape.Param(table), &indices}});
      return tape.SumAll(tape.Square(concat));
    });
  }
}

TEST_P(FusedOpGradTest, ConcatGatheredWithEmptyIndexListBackpropagates) {
  // A non-null but empty index vector is a gather producing zero rows —
  // it must stay on the scatter path in the backward pass (not be
  // confused with an identity part).
  Parameter* table = store_.Create("table", 4, 3, Initializer::kGlorotUniform);
  const std::vector<int> empty;
  Tape tape(&backend());
  const Var concat = tape.ConcatGathered({{tape.Param(table), &empty}});
  EXPECT_EQ(tape.value(concat).rows(), 0);
  tape.Backward(tape.SumAll(concat));
  for (std::size_t i = 0; i < table->grad.size(); ++i) {
    EXPECT_EQ(table->grad.data()[i], 0.0f);
  }
}

TEST_P(FusedOpGradTest, ConcatGatheredMatchesGatherPlusConcat) {
  Parameter* table = store_.Create("table", 9, 4, Initializer::kGlorotUniform);
  Parameter* direct = store_.Create("direct", 5, 3,
                                    Initializer::kGlorotUniform);
  const std::vector<int> indices = {2, 2, 8, 0, 7};
  Tape tape(&backend());
  const Var fused = tape.ConcatGathered(
      {{tape.Param(direct), nullptr}, {tape.Param(table), &indices}});
  const Var composed = tape.ConcatCols(
      {tape.Param(direct), tape.GatherRows(tape.Param(table), indices)});
  EXPECT_TRUE(tape.value(fused).AllClose(tape.value(composed), 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, FusedOpGradTest,
    ::testing::Values(KernelBackendKind::kReference,
                      KernelBackendKind::kOptimized),
    [](const ::testing::TestParamInfo<KernelBackendKind>& info) {
      return std::string(GetKernelBackend(info.param).name());
    });

// ---- Known values on the process-default backend ------------------------

/** a * b into a fresh tensor on the default backend. */
Tensor DefaultMatMul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  DefaultKernelBackend().MatMulAcc(a, b, out);
  return out;
}

/** op(a, b) into a fresh tensor on the default backend. */
Tensor DefaultBinary(BinaryOp op, const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), a.cols());
  DefaultKernelBackend().BinaryPointwise(op, a, b, out);
  return out;
}

/** The column concatenation of `parts` on the default backend. */
Tensor DefaultConcatCols(const std::vector<Tensor>& parts) {
  int total_cols = 0;
  for (const Tensor& part : parts) total_cols += part.cols();
  Tensor out(parts.front().rows(), total_cols);
  int offset = 0;
  for (const Tensor& part : parts) {
    DefaultKernelBackend().AccumulateColumnBlock(part, 0, out, offset,
                                                 part.cols());
    offset += part.cols();
  }
  return out;
}

TEST(DefaultBackendKnownValueTest, MatMulKnownProduct) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = DefaultMatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(DefaultBackendKnownValueTest, MatMulIdentityIsNeutral) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor identity(2, 2, {1, 0, 0, 1});
  EXPECT_TRUE(DefaultMatMul(a, identity) == a);
  EXPECT_TRUE(DefaultMatMul(identity, a) == a);
}

TEST(DefaultBackendKnownValueTest, TransposeVariantsAgree) {
  const KernelBackend& backend = DefaultKernelBackend();
  const Tensor a(3, 2, {1, 2, 3, 4, 5, 6});
  const Tensor b(3, 4, {1, 0, 2, 1, 3, 1, 0, 2, 2, 2, 1, 1});
  // A^T * B via the accumulate-transpose kernel, against an explicit A^T.
  Tensor at_b(2, 4);
  backend.MatMulTransposeAAcc(a, b, at_b);
  Tensor a_transposed(2, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 2; ++c) a_transposed.at(c, r) = a.at(r, c);
  }
  EXPECT_TRUE(at_b.AllClose(DefaultMatMul(a_transposed, b)));

  // A * B^T via the accumulate-transpose kernel, against an explicit B^T.
  const Tensor c(4, 2, {1, 1, 0, 2, 3, 0, 1, 1});
  Tensor a_ct(3, 4);
  backend.MatMulTransposeBAcc(a, c, a_ct);
  Tensor c_transposed(2, 4);
  for (int r = 0; r < 4; ++r) {
    for (int col = 0; col < 2; ++col) c_transposed.at(col, r) = c.at(r, col);
  }
  EXPECT_TRUE(a_ct.AllClose(DefaultMatMul(a, c_transposed)));
}

TEST(DefaultBackendKnownValueTest, AddSubMulDiv) {
  const Tensor a(1, 4, {4, 9, 16, 25});
  const Tensor b(1, 4, {2, 3, 4, 5});
  EXPECT_TRUE(DefaultBinary(BinaryOp::kAdd, a, b) ==
              Tensor(1, 4, {6, 12, 20, 30}));
  EXPECT_TRUE(DefaultBinary(BinaryOp::kSub, a, b) ==
              Tensor(1, 4, {2, 6, 12, 20}));
  EXPECT_TRUE(DefaultBinary(BinaryOp::kMul, a, b) ==
              Tensor(1, 4, {8, 27, 64, 125}));
  EXPECT_TRUE(DefaultBinary(BinaryOp::kDiv, a, b) ==
              Tensor(1, 4, {2, 3, 4, 5}));
}

TEST(DefaultBackendKnownValueTest, ScaleAndAccumulate) {
  const KernelBackend& backend = DefaultKernelBackend();
  const Tensor a(1, 3, {1, 2, 3});
  Tensor scaled(1, 3);
  backend.ScaleInto(a, 2.0f, scaled);
  EXPECT_TRUE(scaled == Tensor(1, 3, {2, 4, 6}));
  Tensor out(1, 3, {10, 10, 10});
  backend.AccumulateAdd(a, out);
  EXPECT_TRUE(out == Tensor(1, 3, {11, 12, 13}));
  backend.AccumulateScaled(a, -1.0f, out);
  EXPECT_TRUE(out == Tensor(1, 3, {10, 10, 10}));
}

TEST(DefaultBackendKnownValueTest, AddRowBroadcastAddsBiasToEveryRow) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor bias(1, 3, {10, 20, 30});
  Tensor out(2, 3);
  DefaultKernelBackend().AddRowBroadcastInto(a, bias, out);
  EXPECT_TRUE(out == Tensor(2, 3, {11, 22, 33, 14, 25, 36}));
}

TEST(DefaultBackendKnownValueTest, SumAndNorm) {
  const Tensor a(2, 2, {3, 4, 0, 0});
  EXPECT_DOUBLE_EQ(DefaultKernelBackend().SumAll(a), 7.0);
  const Tensor squares = DefaultBinary(BinaryOp::kMul, a, a);
  EXPECT_DOUBLE_EQ(std::sqrt(DefaultKernelBackend().SumAll(squares)), 5.0);
}

TEST(DefaultBackendKnownValueTest, GatherRowsPicksAndRepeats) {
  const Tensor table(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor gathered(3, 2);
  DefaultKernelBackend().GatherRowsAcc(table, {2, 0, 2}, gathered);
  EXPECT_TRUE(gathered == Tensor(3, 2, {5, 6, 1, 2, 5, 6}));
}

TEST(DefaultBackendKnownValueTest, SegmentSumSumsIntoBuckets) {
  const Tensor rows(4, 2, {1, 1, 2, 2, 3, 3, 4, 4});
  Tensor summed(3, 2);
  DefaultKernelBackend().ScatterAddRows(rows, {0, 1, 0, 1}, summed);
  EXPECT_TRUE(summed == Tensor(3, 2, {4, 4, 6, 6, 0, 0}));
}

TEST(DefaultBackendKnownValueTest, ConcatColsConcatenates) {
  const Tensor a(2, 1, {1, 2});
  const Tensor b(2, 2, {3, 4, 5, 6});
  EXPECT_TRUE(DefaultConcatCols({a, b}) == Tensor(2, 3, {1, 3, 4, 2, 5, 6}));
}

TEST(DefaultBackendKnownValueTest, ConcatColsSingleInputIsCopy) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  EXPECT_TRUE(DefaultConcatCols({a}) == a);
}

// ---- Selection plumbing --------------------------------------------------

TEST(KernelBackendSelectionTest, KindsResolveToDistinctBackends) {
  const KernelBackend& reference =
      GetKernelBackend(KernelBackendKind::kReference);
  const KernelBackend& optimized =
      GetKernelBackend(KernelBackendKind::kOptimized);
  EXPECT_NE(&reference, &optimized);
  EXPECT_STREQ(reference.name(), "reference");
  EXPECT_STREQ(optimized.name(), "optimized");
}

TEST(KernelBackendSelectionTest, SetDefaultBackendRoutesTapes) {
  const KernelBackend& reference =
      GetKernelBackend(KernelBackendKind::kReference);
  SetDefaultKernelBackend(&reference);
  {
    Tape tape;
    EXPECT_EQ(&tape.backend(), &reference);
  }
  SetDefaultKernelBackend(nullptr);
  {
    Tape tape;
    EXPECT_EQ(&tape.backend(), &DefaultKernelBackend());
    EXPECT_EQ(&tape.backend(),
              &GetKernelBackend(KernelBackendKind::kOptimized));
  }
}

TEST(KernelBackendSelectionTest, ExplicitTapeBackendWins) {
  const KernelBackend& reference =
      GetKernelBackend(KernelBackendKind::kReference);
  Tape tape(&reference);
  EXPECT_EQ(&tape.backend(), &reference);
}

}  // namespace
}  // namespace granite::ml
