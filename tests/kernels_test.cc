/**
 * @file
 * Kernel-backend equivalence suite, parameterized over the optimized
 * backend once per ISA copy (tests/backends_under_test.h): each
 * KernelBackend operation is run through the reference oracle and the
 * backend under test on the same inputs — including odd, prime, deep and
 * micro-kernel-aligned shapes that exercise every remainder path of the
 * tiled kernels, zero-filled and seeded outputs, and zeros of both signs
 * — and the results must have the same bits: every backend follows the
 * summation order kernel_backend.h states. The optimized backend's
 * baseline and AVX2 copies must agree with each other bit for bit on
 * every kernel. A row's matmul result must not depend on the row count of
 * the call.
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

std::vector<int> RandomIndices(std::size_t count, int bound, Rng& rng) {
  std::vector<int> indices(count);
  for (std::size_t i = 0; i < count; ++i) {
    indices[i] = static_cast<int>(rng.NextBounded(bound));
  }
  return indices;
}

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

/** A kernel call writing into (or accumulating onto) its output tensor. */
using KernelCall = std::function<void(const KernelBackend&, Tensor&)>;

/** Runs `op` on `expected` and on `actual`, each from a copy of `seed`,
 * and asserts the two outputs have the same bits. */
void ExpectSameResult(const KernelBackend& expected,
                      const KernelBackend& actual, const std::string& label,
                      const Tensor& seed, const KernelCall& op) {
  Tensor from_expected = seed;
  Tensor from_actual = seed;
  op(expected, from_expected);
  op(actual, from_actual);
  ExpectSameBits(from_expected, from_actual, label);
}

/** An (m, k, n) product shape. */
struct MatMulShape {
  int m, k, n;
};

/** Shapes for the plain, A * B^T and fused-bias products. The optimized
 * tiles are 4 rows x 16 columns with a stack-array tile for the n % 16
 * column remainder, so these put m on and off a multiple of 4, n % 16 at
 * 0, 1, 3, 4, 5, 8 and 11, and k from 1 to past 512. */
const MatMulShape kMatMulShapes[] = {
    {1, 1, 1},    {2, 3, 4},     {4, 16, 16},  {5, 17, 16},   {13, 17, 11},
    {31, 29, 37}, {64, 64, 64},  {8, 300, 20}, {67, 263, 33}, {3, 1, 47},
    {4, 257, 17}, {17, 33, 1},   {6, 300, 19}, {5, 40, 8},    {9, 520, 24},
    // GRANITE at embedding 16 and a batch of 100 blocks: the 64 -> 16,
    // 16 -> 16 and 48 -> 16 layers over a trainer worker's rows, the
    // 64 -> 16 layer over a serving batch, the packed dX product of the
    // 64 -> 16 layer, the global projection (578 tokens + 7 edge types)
    // and a width-1 decoder output layer.
    {1656, 64, 16}, {1656, 16, 16}, {1548, 48, 16}, {165, 64, 16},
    {1656, 16, 64}, {100, 585, 16}, {100, 16, 1},
};

/** Extra (m, k, n) shapes for A^T * B (A is k x m): the optimized tiles
 * are 4 output rows x 16 columns with an 8-column tile for the remainder,
 * so these put m on and off a multiple of 4 and n on and off multiples of
 * 8 and 16, down to n = 1. */
const MatMulShape kTransposeAShapes[] = {
    {4, 9, 8},    {6, 7, 1},  {9, 21, 8},    {11, 40, 24},
    {17, 50, 16}, {8, 33, 9}, {64, 120, 16}, {7, 3, 15},
    {5, 40, 24},  {8, 64, 32}, {3, 20, 40},
};

std::string ShapeLabel(const MatMulShape& shape, bool seeded) {
  return std::string(" ")
      .append(std::to_string(shape.m))
      .append("x")
      .append(std::to_string(shape.k))
      .append("x")
      .append(std::to_string(shape.n))
      .append(seeded ? " seeded" : " into zero");
}

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

  /** Runs `op` on the reference and on the backend under test, each from
   * a copy of `seed`, and asserts the same bits. */
  void ExpectMatchesReference(const std::string& label, const Tensor& seed,
                              const KernelCall& op) {
    ExpectSameResult(reference(), backend(), label, seed, op);
  }

  /** An m x n product output: zero-filled, or seeded with values and
   * zeros of both signs. */
  Tensor ProductOutput(const MatMulShape& shape, bool seeded) {
    return seeded ? ZeroPlantedTensor(shape.m, shape.n, rng_)
                  : Tensor(shape.m, shape.n);
  }

  Rng rng_{20260731};
};

TEST_P(KernelEquivalenceTest, MatMulAcc) {
  for (const MatMulShape& shape : kMatMulShapes) {
    for (const bool seeded : {false, true}) {
      const Tensor a = ZeroPlantedTensor(shape.m, shape.k, rng_);
      const Tensor b = RandomTensor(shape.k, shape.n, rng_);
      ExpectMatchesReference("MatMulAcc" + ShapeLabel(shape, seeded),
                             ProductOutput(shape, seeded),
                             [&](const KernelBackend& be, Tensor& o) {
                               be.MatMulAcc(a, b, o);
                             });
    }
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposeAAcc) {
  std::vector<MatMulShape> shapes(std::begin(kMatMulShapes),
                                  std::end(kMatMulShapes));
  shapes.insert(shapes.end(), std::begin(kTransposeAShapes),
                std::end(kTransposeAShapes));
  for (const MatMulShape& shape : shapes) {
    for (const bool seeded : {false, true}) {
      const Tensor a = ZeroPlantedTensor(shape.k, shape.m, rng_);
      const Tensor b = RandomTensor(shape.k, shape.n, rng_);
      ExpectMatchesReference("MatMulTransposeAAcc" + ShapeLabel(shape, seeded),
                             ProductOutput(shape, seeded),
                             [&](const KernelBackend& be, Tensor& o) {
                               be.MatMulTransposeAAcc(a, b, o);
                             });
    }
  }
}

TEST_P(KernelEquivalenceTest, MatMulTransposeBAcc) {
  for (const MatMulShape& shape : kMatMulShapes) {
    for (const bool seeded : {false, true}) {
      const Tensor a = ZeroPlantedTensor(shape.m, shape.k, rng_);
      const Tensor b = RandomTensor(shape.n, shape.k, rng_);
      ExpectMatchesReference("MatMulTransposeBAcc" + ShapeLabel(shape, seeded),
                             ProductOutput(shape, seeded),
                             [&](const KernelBackend& be, Tensor& o) {
                               be.MatMulTransposeBAcc(a, b, o);
                             });
    }
  }
}

TEST_P(KernelEquivalenceTest, LinearBias) {
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a = ZeroPlantedTensor(shape.m, shape.k, rng_);
    const Tensor w = RandomTensor(shape.k, shape.n, rng_);
    const Tensor bias = ZeroPlantedTensor(1, shape.n, rng_);
    ExpectMatchesReference("LinearBias" + ShapeLabel(shape, false),
                           Tensor(shape.m, shape.n),
                           [&](const KernelBackend& be, Tensor& o) {
                             be.LinearBias(a, w, bias, o);
                           });
  }
}

TEST_P(KernelEquivalenceTest, ElementwiseOps) {
  const int rows = 13;
  const int cols = 37;
  const Tensor a = ZeroPlantedTensor(rows, cols, rng_);
  const Tensor b = RandomTensor(rows, cols, rng_, 0.5f, 2.0f);
  const Tensor seed = ZeroPlantedTensor(rows, cols, rng_);

  for (const BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                            BinaryOp::kDiv}) {
    ExpectMatchesReference(
        "BinaryPointwise op " + std::to_string(static_cast<int>(op)), seed,
        [&](const KernelBackend& be, Tensor& o) {
          be.BinaryPointwise(op, a, b, o);
        });
  }
  ExpectMatchesReference("ScaleInto", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.ScaleInto(a, 2.5f, o);
                         });
  ExpectMatchesReference("AddScalarInto", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AddScalarInto(a, -1.25f, o);
                         });
  ExpectMatchesReference(
      "AccumulateAdd", seed,
      [&](const KernelBackend& be, Tensor& o) { be.AccumulateAdd(a, o); });
  ExpectMatchesReference("AccumulateScaled", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateScaled(a, -0.75f, o);
                         });
  ExpectMatchesReference(
      "AccumulateMul", seed,
      [&](const KernelBackend& be, Tensor& o) { be.AccumulateMul(a, b, o); });
  ExpectMatchesReference("AccumulateConstant", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateConstant(0.125f, o);
                         });

  const double ref_sum = reference().SumAll(a);
  const double opt_sum = backend().SumAll(a);
  EXPECT_EQ(std::memcmp(&ref_sum, &opt_sum, sizeof(double)), 0) << "SumAll";
}

TEST_P(KernelEquivalenceTest, UnaryOpsForwardAndGrad) {
  const int rows = 7;
  const int cols = 53;
  const Tensor input = ZeroPlantedTensor(rows, cols, rng_);
  const Tensor out_grad = RandomTensor(rows, cols, rng_);
  const Tensor grad_seed = ZeroPlantedTensor(rows, cols, rng_);
  const float param = 0.8f;  // Huber delta.

  for (const UnaryOp op : {UnaryOp::kRelu, UnaryOp::kSigmoid, UnaryOp::kTanh,
                           UnaryOp::kAbs, UnaryOp::kSquare, UnaryOp::kHuber}) {
    const std::string label = " op " + std::to_string(static_cast<int>(op));
    Tensor forward(rows, cols);
    reference().UnaryForward(op, input, forward, param);
    ExpectMatchesReference("UnaryForward" + label, Tensor(rows, cols),
                           [&](const KernelBackend& be, Tensor& o) {
                             be.UnaryForward(op, input, o, param);
                           });
    ExpectMatchesReference("AccumulateUnaryGrad" + label, grad_seed,
                           [&](const KernelBackend& be, Tensor& o) {
                             be.AccumulateUnaryGrad(op, input, forward,
                                                    out_grad, o, param);
                           });
  }
}

TEST_P(KernelEquivalenceTest, BroadcastAndReductionOps) {
  const int rows = 29;
  const int cols = 31;
  const Tensor a = ZeroPlantedTensor(rows, cols, rng_);
  const Tensor b = ZeroPlantedTensor(rows, cols, rng_);
  const Tensor bias = ZeroPlantedTensor(1, cols, rng_);
  const Tensor column = ZeroPlantedTensor(rows, 1, rng_);
  const Tensor seed = ZeroPlantedTensor(rows, cols, rng_);

  ExpectMatchesReference("AddRowBroadcastInto", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AddRowBroadcastInto(a, bias, o);
                         });
  ExpectMatchesReference("AccumulateColumnSums",
                         ZeroPlantedTensor(1, cols, rng_),
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateColumnSums(a, o);
                         });
  ExpectMatchesReference("MulColumnBroadcastInto", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.MulColumnBroadcastInto(a, column, o);
                         });
  ExpectMatchesReference("AccumulateMulColumnBroadcast", seed,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateMulColumnBroadcast(a, column, o);
                         });
  ExpectMatchesReference("AccumulateRowDots", ZeroPlantedTensor(rows, 1, rng_),
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateRowDots(a, b, o);
                         });
}

TEST_P(KernelEquivalenceTest, GatherScatterConcatOps) {
  const int table_rows = 23;
  const int cols = 19;
  const int gathered = 41;
  const Tensor table = ZeroPlantedTensor(table_rows, cols, rng_);
  const std::vector<int> indices = RandomIndices(gathered, table_rows, rng_);
  const int offset = 7;
  const Tensor wide = ZeroPlantedTensor(gathered, cols + 11, rng_);

  ExpectMatchesReference("GatherRowsAcc into a column block", wide,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.GatherRowsAcc(table, indices, o, offset);
                         });
  ExpectMatchesReference("ScatterAddRows from a column block",
                         ZeroPlantedTensor(table_rows, cols, rng_),
                         [&](const KernelBackend& be, Tensor& o) {
                           be.ScatterAddRows(wide, indices, o, offset);
                         });
  const Tensor src = ZeroPlantedTensor(gathered, cols + 11, rng_);
  ExpectMatchesReference("AccumulateColumnBlock", wide,
                         [&](const KernelBackend& be, Tensor& o) {
                           be.AccumulateColumnBlock(src, 3, o, 5, cols);
                         });
}

TEST_P(KernelEquivalenceTest, LayerNormIsBitIdenticalToReference) {
  // The tuned LayerNorm interleaves rows but keeps every row's sums and
  // the gain/bias reductions in the reference order — at row counts on
  // and off the interleave width and at the widths the model runs.
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
      ExpectSameBits(ref_out, opt_out, "LayerNormForward out " + shape);
      ExpectSameBits(ref_norm, opt_norm,
                     "LayerNormForward normalized " + shape);
      ASSERT_EQ(std::memcmp(ref_inv.data(), opt_inv.data(),
                            rows * sizeof(float)),
                0)
          << "inv_stddev " << shape;

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
      ExpectSameBits(ref_dx, opt_dx, "LayerNormBackward dx " + shape);
      ExpectSameBits(ref_dgain, opt_dgain, "LayerNormBackward dgain " + shape);
      ExpectSameBits(ref_dbias, opt_dbias, "LayerNormBackward dbias " + shape);

      // Each gradient alone (the others null) takes the same path.
      Tensor only_dx = dx_seed;
      backend().LayerNormBackward(out_grad, gain, opt_norm, opt_inv, &only_dx,
                                  nullptr, nullptr);
      ExpectSameBits(ref_dx, only_dx, "LayerNormBackward dx only " + shape);
      Tensor only_dgain = dgain_seed;
      backend().LayerNormBackward(out_grad, gain, opt_norm, opt_inv, nullptr,
                                  &only_dgain, nullptr);
      ExpectSameBits(ref_dgain, only_dgain,
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

TEST(OptimizedIsaTest, CopiesAreBitIdentical) {
  // The AVX2 copy only changes instruction selection: every product and
  // sum keeps its own rounding and order, and FMA is never enabled. So
  // every overridden kernel must match the baseline copy bit for bit.
  // Accumulators start from seeded values (with zeros of both signs); row
  // counts sit on and off the 4-row tiles, widths on and off the 8- and
  // 16-column slivers and the vector widths.
  if (!DispatchesAvx2Copy()) GTEST_SKIP() << "this CPU has no AVX2";
  const KernelBackend& avx2 = GetKernelBackend(KernelBackendKind::kOptimized);
  const KernelBackend& baseline = BaselineCopyBackend();
  Rng rng(20261017);
  const auto both = [&](const std::string& label, const Tensor& seed,
                        const KernelCall& op) {
    ExpectSameResult(avx2, baseline, label, seed, op);
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

      // Matrix products, shallow and deep.
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
  parameter->grad.SetZero();
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
  // Both sum A * W from zero and add the bias once, so the bits agree.
  EXPECT_TRUE(tape.value(fused) == tape.value(composed));
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
