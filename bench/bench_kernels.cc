/**
 * @file
 * Kernel backend throughput: reference vs optimized GFLOP/s for the
 * MatMul family (plain, transpose-A, transpose-B, fused linear+bias)
 * across aligned, odd, and rectangular shapes; LayerNorm, the forward
 * LinearBias and the dX/dW products at the narrow shapes a GRANITE
 * training step runs, for the ISA copy the optimized backend dispatched
 * to and for its baseline copy; the graph structure ops (GatherRowsAcc /
 * ScatterAddRows) at message-passing node counts; plus the end-to-end
 * training-step speedup of a GRANITE model when its math runs on the
 * optimized backend, with that run's minor page faults per step and the
 * kernel's share of its CPU time (the allocator's cost).
 *
 * Acceptance target (ISSUE 2): the optimized backend is >= 3x faster
 * than the reference triple-loop MatMul on 256x256x256, single-threaded.
 */
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/resource_usage.h"
#include "base/rng.h"
#include "bench_common.h"
#include "ml/kernels/kernel_backend.h"
#include "ml/kernels/optimized_backend.h"
#include "ml/tensor.h"

namespace granite::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ml::Tensor RandomTensor(int rows, int cols, Rng& rng) {
  ml::Tensor tensor(rows, cols);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    tensor.data()[i] = rng.NextUniform(-1.0f, 1.0f);
  }
  return tensor;
}

enum class MatMulVariant { kPlain, kTransposeA, kTransposeB, kLinearBias };

const char* VariantName(MatMulVariant variant) {
  switch (variant) {
    case MatMulVariant::kPlain:
      return "C += A*B";
    case MatMulVariant::kTransposeA:
      return "C += At*B";
    case MatMulVariant::kTransposeB:
      return "C += A*Bt";
    case MatMulVariant::kLinearBias:
      return "C = A*W+b";
  }
  return "?";
}

/** Runs one matmul variant repeatedly and returns GFLOP/s. */
double MeasureGflops(const ml::KernelBackend& backend, MatMulVariant variant,
                     int m, int k, int n, double min_seconds) {
  Rng rng(7);
  const ml::Tensor a = variant == MatMulVariant::kTransposeA
                           ? RandomTensor(k, m, rng)
                           : RandomTensor(m, k, rng);
  const ml::Tensor b = variant == MatMulVariant::kTransposeB
                           ? RandomTensor(n, k, rng)
                           : RandomTensor(k, n, rng);
  const ml::Tensor bias = RandomTensor(1, n, rng);
  ml::Tensor out(m, n);

  const double flops_per_call = 2.0 * m * k * n;
  // Warm-up, then time enough iterations to cover min_seconds.
  std::size_t iterations = 0;
  double elapsed = 0.0;
  for (int warm = 0; warm < 2; ++warm) {
    switch (variant) {
      case MatMulVariant::kPlain:
        backend.MatMulAcc(a, b, out);
        break;
      case MatMulVariant::kTransposeA:
        backend.MatMulTransposeAAcc(a, b, out);
        break;
      case MatMulVariant::kTransposeB:
        backend.MatMulTransposeBAcc(a, b, out);
        break;
      case MatMulVariant::kLinearBias:
        backend.LinearBias(a, b, bias, out);
        break;
    }
  }
  const Clock::time_point start = Clock::now();
  while ((elapsed = SecondsSince(start)) < min_seconds) {
    switch (variant) {
      case MatMulVariant::kPlain:
        backend.MatMulAcc(a, b, out);
        break;
      case MatMulVariant::kTransposeA:
        backend.MatMulTransposeAAcc(a, b, out);
        break;
      case MatMulVariant::kTransposeB:
        backend.MatMulTransposeBAcc(a, b, out);
        break;
      case MatMulVariant::kLinearBias:
        backend.LinearBias(a, b, bias, out);
        break;
    }
    ++iterations;
  }
  return flops_per_call * static_cast<double>(iterations) / elapsed / 1e9;
}

struct Shape {
  int m, k, n;
};

void RunMatMulTable(bool quick) {
  const double min_seconds = quick ? 0.05 : 0.25;
  const ml::KernelBackend& reference =
      ml::GetKernelBackend(ml::KernelBackendKind::kReference);
  const ml::KernelBackend& optimized =
      ml::GetKernelBackend(ml::KernelBackendKind::kOptimized);

  const std::vector<Shape> shapes = {
      {64, 64, 64}, {128, 128, 128}, {256, 256, 256},
      {97, 131, 113},                       // primes: every remainder path
      {100, 256, 256}, {1000, 32, 256},     // batch-like rectangles
  };

  std::printf("MatMul family, single-threaded (GFLOP/s)\n");
  const std::vector<int> widths = {11, 16, 11, 11, 9};
  PrintSeparator(widths);
  PrintRow({"variant", "shape", "reference", "optimized", "speedup"},
           widths);
  PrintSeparator(widths);
  for (const MatMulVariant variant :
       {MatMulVariant::kPlain, MatMulVariant::kTransposeA,
        MatMulVariant::kTransposeB, MatMulVariant::kLinearBias}) {
    for (const Shape& shape : shapes) {
      const double ref = MeasureGflops(reference, variant, shape.m, shape.k,
                                       shape.n, min_seconds);
      const double opt = MeasureGflops(optimized, variant, shape.m, shape.k,
                                       shape.n, min_seconds);
      const std::string shape_text = std::to_string(shape.m) + "x" +
                                     std::to_string(shape.k) + "x" +
                                     std::to_string(shape.n);
      // The headline CI metric: the acceptance-target matmul.
      if (variant == MatMulVariant::kPlain && shape.m == 256 &&
          shape.k == 256 && shape.n == 256) {
        RecordMetric("kernels.matmul256.reference_gflops", ref);
        RecordMetric("kernels.matmul256.optimized_gflops", opt);
        RecordMetric("kernels.matmul256.speedup", opt / ref);
      }
      PrintRow({VariantName(variant), shape_text, Fixed(ref, 2),
                Fixed(opt, 2), Fixed(opt / ref, 2) + "x"},
               widths);
    }
    PrintSeparator(widths);
  }
  std::printf("\n");
}

/** Runs `fn` repeatedly for `min_seconds` and returns calls/sec. */
double MeasureCallsPerSec(const std::function<void()>& fn,
                          double min_seconds) {
  fn();  // Warm-up.
  std::size_t iterations = 0;
  double elapsed = 0.0;
  const Clock::time_point start = Clock::now();
  while ((elapsed = SecondsSince(start)) < min_seconds) {
    fn();
    ++iterations;
  }
  return static_cast<double>(iterations) / elapsed;
}

/**
 * The narrow shapes one trainer worker runs per GRANITE step at
 * embedding 16 (half of a batch of 100 blocks): LayerNorm over the
 * 64-wide edge-update and 48-wide node-update inputs, the dX product of
 * a 64 -> 16 layer's backward pass, the dW products of the 64 -> 16
 * and 48 -> 16 layers, and the forward LinearBias of the 64 -> 16 and
 * 16 -> 16 layers (plus the 64 -> 16 layer over a 165-row serving
 * batch). Reference vs optimized, single-threaded; the
 * 256-wide matmul table above says little about these. The "baseline"
 * column forces the optimized backend's baseline ISA copy, so one run on
 * an AVX2 host also tracks the copy that non-AVX2 CPUs run.
 */
void RunGnnShapeTable(bool quick) {
  const double min_seconds = quick ? 0.05 : 0.2;
  const ml::KernelBackend& reference =
      ml::GetKernelBackend(ml::KernelBackendKind::kReference);
  const ml::KernelBackend& optimized =
      ml::GetKernelBackend(ml::KernelBackendKind::kOptimized);
  const ml::OptimizedBackend baseline(/*force_baseline_isa=*/true);

  std::printf("GRANITE training shapes, single-threaded (Mrows/s)\n");
  const std::vector<int> widths = {18, 12, 10, 10, 10, 9};
  PrintSeparator(widths);
  PrintRow({"op", "shape", "reference", "optimized", "baseline", "speedup"},
           widths);
  PrintSeparator(widths);
  const auto measure = [&](const char* label, const std::string& metric,
                           const std::string& shape, int rows,
                           const std::function<void(const ml::KernelBackend&)>&
                               fn) {
    const double mrows = static_cast<double>(rows) / 1e6;
    const double ref =
        MeasureCallsPerSec([&] { fn(reference); }, min_seconds) * mrows;
    const double opt =
        MeasureCallsPerSec([&] { fn(optimized); }, min_seconds) * mrows;
    const double base =
        MeasureCallsPerSec([&] { fn(baseline); }, min_seconds) * mrows;
    const std::string prefix = "kernels.gnn." + metric + "_" + shape;
    RecordMetric(prefix + ".optimized_mrows_per_sec", opt);
    RecordMetric(prefix + ".baseline_mrows_per_sec", base);
    RecordMetric(prefix + ".speedup", opt / ref);
    PrintRow({label, shape, Fixed(ref, 2), Fixed(opt, 2), Fixed(base, 2),
              Fixed(opt / ref, 2) + "x"},
             widths);
  };

  Rng rng(29);
  for (const auto& [rows, cols] :
       {std::pair<int, int>{1656, 64}, std::pair<int, int>{1548, 48}}) {
    const ml::Tensor x = RandomTensor(rows, cols, rng);
    const ml::Tensor gain = RandomTensor(1, cols, rng);
    const ml::Tensor bias = RandomTensor(1, cols, rng);
    const ml::Tensor out_grad = RandomTensor(rows, cols, rng);
    ml::Tensor out(rows, cols);
    ml::Tensor normalized(rows, cols);
    ml::Tensor x_grad(rows, cols);
    ml::Tensor gain_grad(1, cols);
    ml::Tensor bias_grad(1, cols);
    std::vector<float> inv_stddev(rows, 0.0f);
    const std::string shape = std::to_string(rows) + "x" +
                              std::to_string(cols);
    measure("LayerNormForward", "layernorm_fwd", shape, rows,
            [&](const ml::KernelBackend& backend) {
              backend.LayerNormForward(x, gain, bias, 1e-5f, out,
                                       normalized, inv_stddev);
            });
    // The forward calls above left a real result in normalized and
    // inv_stddev for the backward pass to read.
    measure("LayerNormBackward", "layernorm_bwd", shape, rows,
            [&](const ml::KernelBackend& backend) {
              backend.LayerNormBackward(out_grad, gain, normalized,
                                        inv_stddev, &x_grad, &gain_grad,
                                        &bias_grad);
            });
  }

  // dX = dY * W^T for a [64 -> 16] layer over the edge rows.
  const int rows = 1656;
  const ml::Tensor dy = RandomTensor(rows, 16, rng);
  const ml::Tensor w = RandomTensor(64, 16, rng);
  ml::Tensor dx(rows, 64);
  measure("MatMulTransposeB", "dx", "1656x16x64", rows,
          [&](const ml::KernelBackend& backend) {
            backend.MatMulTransposeBAcc(dy, w, dx);
          });

  // dW += X^T * dY for the [64 -> 16] edge and [48 -> 16] node layers.
  for (const auto& [dw_rows, in_width] :
       {std::pair<int, int>{1656, 64}, std::pair<int, int>{1548, 48}}) {
    const ml::Tensor x = RandomTensor(dw_rows, in_width, rng);
    const ml::Tensor dy_layer = RandomTensor(dw_rows, 16, rng);
    ml::Tensor dw(in_width, 16);
    measure("MatMulTransposeA", "dw",
            std::to_string(dw_rows) + "x" + std::to_string(in_width) + "x16",
            dw_rows, [&](const ml::KernelBackend& backend) {
              backend.MatMulTransposeAAcc(x, dy_layer, dw);
            });
  }

  // Y = X * W + b forward for the [64 -> 16] edge and [16 -> 16] layers
  // over the edge rows, and for the edge layer over one serving batch.
  for (const Shape& shape :
       {Shape{1656, 64, 16}, Shape{1656, 16, 16}, Shape{165, 64, 16}}) {
    const ml::Tensor x = RandomTensor(shape.m, shape.k, rng);
    const ml::Tensor w_layer = RandomTensor(shape.k, shape.n, rng);
    const ml::Tensor bias = RandomTensor(1, shape.n, rng);
    ml::Tensor y(shape.m, shape.n);
    measure("LinearBias", "linear",
            std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
                std::to_string(shape.n),
            shape.m, [&](const ml::KernelBackend& backend) {
              backend.LinearBias(x, w_layer, bias, y);
            });
  }
  PrintSeparator(widths);
  std::printf("\n");
}

/** Graph structure ops at message-passing node counts. These are
 * memory-bound (one add per element). */
void RunGraphOpsTable(bool quick) {
  const double min_seconds = quick ? 0.05 : 0.2;
  // A large message-passing batch: tens of thousands of edge-endpoint
  // rows gathered from / scattered to a few thousand node rows.
  const int rows = quick ? 8192 : 32768;
  const int cols = 64;
  const int table_rows = 4096;

  Rng rng(23);
  const ml::Tensor table = RandomTensor(table_rows, cols, rng);
  const ml::Tensor rows_in = RandomTensor(rows, cols, rng);
  std::vector<int> indices(rows);
  for (int i = 0; i < rows; ++i) {
    indices[static_cast<std::size_t>(i)] = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(table_rows)));
  }
  ml::Tensor out(rows, cols);
  ml::Tensor scatter_table(table_rows, cols);
  const ml::KernelBackend& optimized =
      ml::GetKernelBackend(ml::KernelBackendKind::kOptimized);

  struct Op {
    const char* label;
    const char* metric;
    std::function<void()> fn;
  };
  const std::vector<Op> ops = {
      {"GatherRowsAcc", "gather",
       [&] { optimized.GatherRowsAcc(table, indices, out); }},
      {"ScatterAddRows", "scatter",
       [&] { optimized.ScatterAddRows(rows_in, indices, scatter_table); }},
  };

  std::printf("Graph ops at %dx%d (Mrows/s)\n", rows, cols);
  const std::vector<int> widths = {18, 10};
  PrintSeparator(widths);
  PrintRow({"op", "optimized"}, widths);
  PrintSeparator(widths);
  for (const Op& op : ops) {
    const double rate = MeasureCallsPerSec(op.fn, min_seconds) *
                        static_cast<double>(rows) / 1e6;
    RecordMetric(std::string("kernels.graph_ops.") + op.metric +
                     "_mrows_per_sec",
                 rate);
    PrintRow({op.label, Fixed(rate, 2)}, widths);
  }
  PrintSeparator(widths);
  std::printf("\n");
}

/** One short training run: its rate, and the process CPU time and page
 * faults it took (all threads). */
struct TrainingRun {
  double steps_per_sec = 0.0;
  base::CpuUsage usage;
};

TrainingRun MeasureTraining(const Scale& scale, const SplitDataset& data,
                            int steps, ml::KernelBackendKind backend) {
  train::TrainerConfig trainer_config = SingleTaskTrainerConfig(
      scale, steps, uarch::Microarchitecture::kIvyBridge);
  trainer_config.validation_every = 0;
  trainer_config.kernel_backend = backend;
  core::GraniteConfig model_config = GraniteBenchConfig(scale, 1, data.train);
  model_config.kernel_backend = backend;
  train::ModelRunner runner(model_config, trainer_config);
  // An untimed pass over the same batches first: a trainer grows its tape
  // arenas to its largest step once, which a step rate should not count.
  runner.Train(data.train, data.validation);
  const base::CpuUsage before = base::ProcessCpuUsage();
  const Clock::time_point start = Clock::now();
  runner.Train(data.train, data.validation);
  TrainingRun run;
  run.steps_per_sec = steps / SecondsSince(start);
  run.usage = base::ProcessCpuUsage() - before;
  return run;
}

void RunEndToEnd(const Scale& scale) {
  const SplitDataset data =
      MakeDataset(uarch::MeasurementTool::kIthemalTool, scale.bhive_blocks,
                  311);
  const int steps = scale.quick ? 8 : 30;

  std::printf("End-to-end GRANITE training step (embedding %d)\n",
              scale.embedding_size);
  const std::vector<int> widths = {11, 12, 10};
  PrintSeparator(widths);
  PrintRow({"backend", "steps/sec", "speedup"}, widths);
  PrintSeparator(widths);
  const double reference_rate =
      MeasureTraining(scale, data, steps, ml::KernelBackendKind::kReference)
          .steps_per_sec;
  const TrainingRun optimized =
      MeasureTraining(scale, data, steps, ml::KernelBackendKind::kOptimized);
  const double optimized_rate = optimized.steps_per_sec;
  // Allocator cost of the optimized run: page faults per step and the
  // kernel's share of its CPU time.
  const double cpu_s = optimized.usage.user_s + optimized.usage.sys_s;
  const double sys_cpu_share =
      cpu_s > 0.0 ? optimized.usage.sys_s / cpu_s : 0.0;
  const double faults_per_step =
      static_cast<double>(optimized.usage.minor_faults) / steps;
  RecordMetric("kernels.train_step.reference_steps_per_sec",
               reference_rate);
  RecordMetric("kernels.train_step.optimized_steps_per_sec",
               optimized_rate);
  RecordMetric("kernels.train_step.speedup",
               optimized_rate / reference_rate);
  RecordMetric("kernels.train_step.minor_faults_per_step", faults_per_step);
  RecordMetric("kernels.train_step.sys_cpu_share", sys_cpu_share);
  PrintRow({"reference", Fixed(reference_rate, 2), "1.00x"}, widths);
  PrintRow({"optimized", Fixed(optimized_rate, 2),
            Fixed(optimized_rate / reference_rate, 2) + "x"},
           widths);
  PrintSeparator(widths);
  std::printf("optimized run: %.1f minor faults/step, sys share %s\n\n",
              faults_per_step, Percent(sys_cpu_share).c_str());
}

void Run(int argc, char** argv) {
  Scale scale = ParseScale(argc, argv);
  // The end-to-end comparison benefits from a model big enough for the
  // matmuls to dominate tape bookkeeping.
  scale.embedding_size = scale.quick ? 16 : 48;
  scale.message_passing_iterations = 4;
  PrintBanner("Kernel backends: blocked/SIMD vs reference loops", scale);
  std::printf("optimized backend ISA copy: %s\n\n",
              static_cast<const ml::OptimizedBackend&>(
                  ml::GetKernelBackend(ml::KernelBackendKind::kOptimized))
                  .isa());
  RunMatMulTable(scale.quick);
  RunGnnShapeTable(scale.quick);
  RunGraphOpsTable(scale.quick);
  RunEndToEnd(scale);
  WriteMetricsJson();
}

}  // namespace
}  // namespace granite::bench

int main(int argc, char** argv) { granite::bench::Run(argc, argv); }
