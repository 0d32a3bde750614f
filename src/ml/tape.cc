#include "ml/tape.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"

namespace granite::ml {

Tape::Tape(const KernelBackend* backend, GradMode mode)
    : backend_(backend != nullptr ? backend : &DefaultKernelBackend()),
      grad_mode_(mode),
      arena_(TapeArenaScope::Current()) {
  if (arena_ != nullptr) {
    arena_->Attach();
    nodes_.reserve(arena_->max_tape_nodes_);
  }
}

Tape::~Tape() {
  if (arena_ == nullptr) return;
  arena_->max_tape_nodes_ = std::max(arena_->max_tape_nodes_, nodes_.size());
  // The views go before the arena memory they point into is rewound.
  nodes_.clear();
  arena_->Detach();
}

Tensor Tape::NewValue(int rows, int cols) {
  if (arena_ == nullptr) return Tensor(rows, cols);
  GRANITE_CHECK(rows >= 0 && cols >= 0);
  return Tensor::View(rows, cols,
                      arena_->Allocate(static_cast<std::size_t>(rows) * cols));
}

Tensor Tape::NewZeroedValue(int rows, int cols) {
  Tensor value = NewValue(rows, cols);
  // A heap value starts zeroed already.
  if (arena_ != nullptr) {
    std::memset(value.data(), 0, value.size() * sizeof(float));
  }
  return value;
}

template <typename BackwardFn>
Var Tape::MakeNode(Tensor value, bool requires_grad, BackwardFn&& backward,
                   Parameter* parameter) {
  Node& node = nodes_.emplace_back();
  node.requires_grad = requires_grad;
  node.parameter = parameter;
  // Backward() only visits nodes that require grad, so a closure on any
  // other node would never run; dropping it here frees its captures now
  // instead of when the tape dies.
  if (requires_grad) {
    node.grad = NewZeroedValue(value.rows(), value.cols());
    node.backward = std::forward<BackwardFn>(backward);
  }
  node.value = std::move(value);
  return Var(this, static_cast<int>(nodes_.size()) - 1);
}

Tape::Node& Tape::node(Var v) {
  GRANITE_CHECK(v.tape() == this);
  GRANITE_CHECK(v.id() >= 0 && v.id() < static_cast<int>(nodes_.size()));
  return nodes_[v.id()];
}

const Tape::Node& Tape::node(Var v) const {
  GRANITE_CHECK(v.tape() == this);
  GRANITE_CHECK(v.id() >= 0 && v.id() < static_cast<int>(nodes_.size()));
  return nodes_[v.id()];
}

bool Tape::RequiresGrad(Var v) const { return node(v).requires_grad; }

void Tape::AccumulateGrad(int id, const Tensor& delta) {
  Node& target = nodes_[id];
  if (!target.requires_grad) return;
  backend_->AccumulateAdd(delta, target.grad);
}

const Tensor& Tape::value(Var v) const { return node(v).value; }

const Tensor& Tape::grad(Var v) const {
  const Node& n = node(v);
  GRANITE_CHECK_MSG(n.requires_grad, "grad() on a non-differentiable node");
  return n.grad;
}

Var Tape::Constant(Tensor value) {
  return MakeNode(std::move(value), /*requires_grad=*/false, nullptr);
}

Var Tape::Param(Parameter* parameter) {
  GRANITE_CHECK(parameter != nullptr);
  Tensor& value = parameter->value;
  // An inference leaf borrows the parameter's storage, which the caller
  // keeps fixed while the tape lives; a recording tape copies it.
  const bool record = grad_mode_ == GradMode::kRecord;
  Tensor leaf =
      record ? NewValue(value.rows(), value.cols())
             : Tensor::View(value.rows(), value.cols(), value.data());
  if (record) {
    std::memcpy(leaf.data(), value.data(), value.size() * sizeof(float));
  }
  return MakeNode(std::move(leaf), /*requires_grad=*/record,
                  [](Tape& tape, int self) {
                    Node& node = tape.nodes_[self];
                    Tensor& dest =
                        tape.gradient_sink_ != nullptr
                            ? tape.gradient_sink_->GradFor(node.parameter)
                            : node.parameter->grad;
                    tape.backend_->AccumulateAdd(node.grad, dest);
                  },
                  parameter);
}

Var Tape::MatMul(Var a, Var b) {
  const Tensor& a_value = value(a);
  const Tensor& b_value = value(b);
  Tensor out = NewZeroedValue(a_value.rows(), b_value.cols());
  backend_->MatMulAcc(a_value, b_value, out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(b);
  const int a_id = a.id();
  const int b_id = b.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, b_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    Node& a_node = tape.nodes_[a_id];
                    Node& b_node = tape.nodes_[b_id];
                    if (a_node.requires_grad) {
                      // dA = dC * B^T
                      tape.backend_->MatMulTransposeBAcc(
                          out_grad, b_node.value, a_node.grad);
                    }
                    if (b_node.requires_grad) {
                      // dB = A^T * dC
                      tape.backend_->MatMulTransposeAAcc(
                          a_node.value, out_grad, b_node.grad);
                    }
                  });
}

Var Tape::Linear(Var a, Var w, Var bias) {
  const Tensor& a_value = value(a);
  const Tensor& w_value = value(w);
  Tensor out = NewValue(a_value.rows(), w_value.cols());
  backend_->LinearBias(a_value, w_value, value(bias), out);
  const bool needs_grad =
      RequiresGrad(a) || RequiresGrad(w) || RequiresGrad(bias);
  const int a_id = a.id();
  const int w_id = w.id();
  const int bias_id = bias.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, w_id, bias_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    Node& a_node = tape.nodes_[a_id];
                    Node& w_node = tape.nodes_[w_id];
                    Node& bias_node = tape.nodes_[bias_id];
                    if (a_node.requires_grad) {
                      tape.backend_->MatMulTransposeBAcc(
                          out_grad, w_node.value, a_node.grad);
                    }
                    if (w_node.requires_grad) {
                      tape.backend_->MatMulTransposeAAcc(
                          a_node.value, out_grad, w_node.grad);
                    }
                    if (bias_node.requires_grad) {
                      tape.backend_->AccumulateColumnSums(out_grad,
                                                          bias_node.grad);
                    }
                  });
}

Var Tape::Add(Var a, Var b) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->BinaryPointwise(BinaryOp::kAdd, value(a), value(b), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(b);
  const int a_id = a.id();
  const int b_id = b.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, b_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    tape.AccumulateGrad(a_id, out_grad);
                    tape.AccumulateGrad(b_id, out_grad);
                  });
}

Var Tape::Sub(Var a, Var b) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->BinaryPointwise(BinaryOp::kSub, value(a), value(b), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(b);
  const int a_id = a.id();
  const int b_id = b.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, b_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    tape.AccumulateGrad(a_id, out_grad);
                    if (tape.nodes_[b_id].requires_grad) {
                      tape.backend_->AccumulateScaled(
                          out_grad, -1.0f, tape.nodes_[b_id].grad);
                    }
                  });
}

Var Tape::Mul(Var a, Var b) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->BinaryPointwise(BinaryOp::kMul, value(a), value(b), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(b);
  const int a_id = a.id();
  const int b_id = b.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, b_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    Node& a_node = tape.nodes_[a_id];
                    Node& b_node = tape.nodes_[b_id];
                    if (a_node.requires_grad) {
                      tape.backend_->AccumulateMul(out_grad, b_node.value,
                                                   a_node.grad);
                    }
                    if (b_node.requires_grad) {
                      tape.backend_->AccumulateMul(out_grad, a_node.value,
                                                   b_node.grad);
                    }
                  });
}

Var Tape::Div(Var a, Var b) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->BinaryPointwise(BinaryOp::kDiv, value(a), value(b), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(b);
  const int a_id = a.id();
  const int b_id = b.id();
  return MakeNode(
      std::move(out), needs_grad, [a_id, b_id](Tape& tape, int self) {
        const Tensor& out_grad = tape.nodes_[self].grad;
        Node& a_node = tape.nodes_[a_id];
        Node& b_node = tape.nodes_[b_id];
        const KernelBackend& kb = *tape.backend_;
        if (a_node.requires_grad) {
          Tensor delta(out_grad.rows(), out_grad.cols());
          kb.BinaryPointwise(BinaryOp::kDiv, out_grad, b_node.value, delta);
          kb.AccumulateAdd(delta, a_node.grad);
        }
        if (b_node.requires_grad) {
          // d/db (a/b) = -a / b^2
          Tensor numerator(out_grad.rows(), out_grad.cols());
          kb.BinaryPointwise(BinaryOp::kMul, out_grad, a_node.value,
                             numerator);
          Tensor denominator(out_grad.rows(), out_grad.cols());
          kb.BinaryPointwise(BinaryOp::kMul, b_node.value, b_node.value,
                             denominator);
          Tensor delta(out_grad.rows(), out_grad.cols());
          kb.BinaryPointwise(BinaryOp::kDiv, numerator, denominator, delta);
          kb.AccumulateScaled(delta, -1.0f, b_node.grad);
        }
      });
}

Var Tape::Scale(Var a, float factor) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->ScaleInto(value(a), factor, out);
  const int a_id = a.id();
  return MakeNode(std::move(out), RequiresGrad(a),
                  [a_id, factor](Tape& tape, int self) {
                    if (!tape.nodes_[a_id].requires_grad) return;
                    tape.backend_->AccumulateScaled(tape.nodes_[self].grad,
                                                    factor,
                                                    tape.nodes_[a_id].grad);
                  });
}

Var Tape::AddConstant(Var a, float constant) {
  const Tensor& a_value = value(a);
  Tensor out = NewValue(a_value.rows(), a_value.cols());
  backend_->AddScalarInto(a_value, constant, out);
  const int a_id = a.id();
  return MakeNode(std::move(out), RequiresGrad(a),
                  [a_id](Tape& tape, int self) {
                    tape.AccumulateGrad(a_id, tape.nodes_[self].grad);
                  });
}

Var Tape::AddRowBroadcast(Var a, Var bias) {
  Tensor out = NewValue(value(a).rows(), value(a).cols());
  backend_->AddRowBroadcastInto(value(a), value(bias), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(bias);
  const int a_id = a.id();
  const int bias_id = bias.id();
  return MakeNode(std::move(out), needs_grad,
                  [a_id, bias_id](Tape& tape, int self) {
                    const Tensor& out_grad = tape.nodes_[self].grad;
                    tape.AccumulateGrad(a_id, out_grad);
                    Node& bias_node = tape.nodes_[bias_id];
                    if (bias_node.requires_grad) {
                      // Sum adjoints over rows.
                      tape.backend_->AccumulateColumnSums(out_grad,
                                                          bias_node.grad);
                    }
                  });
}

Var Tape::MulColumnBroadcast(Var a, Var column) {
  const Tensor& a_value = value(a);
  Tensor out = NewValue(a_value.rows(), a_value.cols());
  backend_->MulColumnBroadcastInto(a_value, value(column), out);
  const bool needs_grad = RequiresGrad(a) || RequiresGrad(column);
  const int a_id = a.id();
  const int column_id = column.id();
  return MakeNode(
      std::move(out), needs_grad, [a_id, column_id](Tape& tape, int self) {
        const Tensor& out_grad = tape.nodes_[self].grad;
        Node& a_node = tape.nodes_[a_id];
        Node& column_node = tape.nodes_[column_id];
        if (a_node.requires_grad) {
          tape.backend_->AccumulateMulColumnBroadcast(
              out_grad, column_node.value, a_node.grad);
        }
        if (column_node.requires_grad) {
          tape.backend_->AccumulateRowDots(out_grad, a_node.value,
                                           column_node.grad);
        }
      });
}

Var Tape::Relu(Var a) { return UnaryNode(a, UnaryOp::kRelu, 0.0f); }

Var Tape::Sigmoid(Var a) { return UnaryNode(a, UnaryOp::kSigmoid, 0.0f); }

Var Tape::Tanh(Var a) { return UnaryNode(a, UnaryOp::kTanh, 0.0f); }

Var Tape::Abs(Var a) { return UnaryNode(a, UnaryOp::kAbs, 0.0f); }

Var Tape::Square(Var a) { return UnaryNode(a, UnaryOp::kSquare, 0.0f); }

Var Tape::Huber(Var a, float delta) {
  GRANITE_CHECK_GT(delta, 0.0f);
  return UnaryNode(a, UnaryOp::kHuber, delta);
}

Var Tape::UnaryNode(Var a, UnaryOp op, float param) {
  const Tensor& a_value = value(a);
  Tensor out = NewValue(a_value.rows(), a_value.cols());
  backend_->UnaryForward(op, a_value, out, param);
  const int a_id = a.id();
  return MakeNode(std::move(out), RequiresGrad(a),
                  [a_id, op, param](Tape& tape, int self) {
                    Node& a_node = tape.nodes_[a_id];
                    if (!a_node.requires_grad) return;
                    const Node& self_node = tape.nodes_[self];
                    tape.backend_->AccumulateUnaryGrad(
                        op, a_node.value, self_node.value, self_node.grad,
                        a_node.grad, param);
                  });
}

Var Tape::LayerNorm(Var x, Var gain, Var bias, float epsilon) {
  const Tensor& x_value = value(x);
  const int rows = x_value.rows();
  const int cols = x_value.cols();

  const bool needs_grad =
      RequiresGrad(x) || RequiresGrad(gain) || RequiresGrad(bias);
  // The normalized activations and inverse stddev are backward-pass state,
  // captured by value in the closure; a forward no gradient flows through
  // leaves both empty, and the kernel skips them.
  Tensor normalized;
  std::vector<float> inv_stddev;
  if (needs_grad) {
    normalized = NewValue(rows, cols);
    inv_stddev.resize(rows);
  }
  Tensor out = NewValue(rows, cols);
  backend_->LayerNormForward(x_value, value(gain), value(bias), epsilon, out,
                             normalized, inv_stddev);

  const int x_id = x.id();
  const int gain_id = gain.id();
  const int bias_id = bias.id();
  return MakeNode(
      std::move(out), needs_grad,
      [x_id, gain_id, bias_id, normalized = std::move(normalized),
       inv_stddev = std::move(inv_stddev)](Tape& tape, int self) {
        const Tensor& out_grad = tape.nodes_[self].grad;
        Node& x_node = tape.nodes_[x_id];
        Node& gain_node = tape.nodes_[gain_id];
        Node& bias_node = tape.nodes_[bias_id];
        tape.backend_->LayerNormBackward(
            out_grad, gain_node.value, normalized, inv_stddev,
            x_node.requires_grad ? &x_node.grad : nullptr,
            gain_node.requires_grad ? &gain_node.grad : nullptr,
            bias_node.requires_grad ? &bias_node.grad : nullptr);
      });
}

Var Tape::GatherRows(Var table, const std::vector<int>& indices) {
  const Tensor& table_value = value(table);
  Tensor out =
      NewZeroedValue(static_cast<int>(indices.size()), table_value.cols());
  backend_->GatherRowsAcc(table_value, indices, out);
  const bool needs_grad = RequiresGrad(table);
  const int table_id = table.id();
  // The backward closure keeps a copy of the indices only when a gradient
  // will flow.
  return MakeNode(std::move(out), needs_grad,
                  [table_id, indices = needs_grad ? indices
                                                  : std::vector<int>()](
                      Tape& tape, int self) {
                    Node& table_node = tape.nodes_[table_id];
                    if (!table_node.requires_grad) return;
                    tape.backend_->ScatterAddRows(tape.nodes_[self].grad,
                                                  indices, table_node.grad);
                  });
}

Var Tape::SegmentSum(Var rows, const std::vector<int>& segment_ids,
                     int num_segments) {
  const Tensor& rows_value = value(rows);
  GRANITE_CHECK_EQ(segment_ids.size(),
                   static_cast<std::size_t>(rows_value.rows()));
  Tensor out = NewZeroedValue(num_segments, rows_value.cols());
  backend_->ScatterAddRows(rows_value, segment_ids, out);
  const bool needs_grad = RequiresGrad(rows);
  const int rows_id = rows.id();
  return MakeNode(std::move(out), needs_grad,
                  [rows_id, segment_ids = needs_grad ? segment_ids
                                                     : std::vector<int>()](
                      Tape& tape, int self) {
                    Node& rows_node = tape.nodes_[rows_id];
                    if (!rows_node.requires_grad) return;
                    // Each input row's adjoint is its segment's adjoint.
                    tape.backend_->GatherRowsAcc(tape.nodes_[self].grad,
                                                 segment_ids,
                                                 rows_node.grad);
                  });
}

Var Tape::ConcatCols(const std::vector<Var>& parts) {
  GRANITE_CHECK(!parts.empty());
  std::vector<GatherSpec> specs;
  specs.reserve(parts.size());
  for (Var part : parts) specs.push_back(GatherSpec{part, nullptr});
  return ConcatGathered(specs);
}

Var Tape::ConcatGathered(const std::vector<GatherSpec>& parts) {
  GRANITE_CHECK(!parts.empty());
  int rows = -1;
  int total_cols = 0;
  bool needs_grad = false;
  for (const GatherSpec& part : parts) {
    const Tensor& source = value(part.source);
    const int part_rows = part.indices != nullptr
                              ? static_cast<int>(part.indices->size())
                              : source.rows();
    if (rows < 0) rows = part_rows;
    GRANITE_CHECK_EQ(part_rows, rows);
    total_cols += source.cols();
    needs_grad = needs_grad || RequiresGrad(part.source);
  }

  Tensor out = NewZeroedValue(rows, total_cols);
  // Backward-closure state, kept only when a gradient will flow: node
  // id, column offset/width, whether the part was gathered, and a copy
  // of its gather indices.
  std::vector<int> part_ids;
  std::vector<int> part_offsets;
  std::vector<int> part_cols;
  std::vector<char> part_gathered;
  std::vector<std::vector<int>> part_indices;
  const std::size_t kept_parts = needs_grad ? parts.size() : 0;
  part_ids.reserve(kept_parts);
  part_offsets.reserve(kept_parts);
  part_cols.reserve(kept_parts);
  part_gathered.reserve(kept_parts);
  part_indices.reserve(kept_parts);
  int offset = 0;
  for (const GatherSpec& part : parts) {
    const Tensor& source = value(part.source);
    if (part.indices != nullptr) {
      backend_->GatherRowsAcc(source, *part.indices, out, offset);
    } else {
      backend_->AccumulateColumnBlock(source, 0, out, offset, source.cols());
    }
    if (needs_grad) {
      part_indices.push_back(part.indices != nullptr ? *part.indices
                                                     : std::vector<int>());
      part_gathered.push_back(part.indices != nullptr ? 1 : 0);
      part_ids.push_back(part.source.id());
      part_offsets.push_back(offset);
      part_cols.push_back(source.cols());
    }
    offset += source.cols();
  }

  return MakeNode(
      std::move(out), needs_grad,
      [part_ids = std::move(part_ids), part_offsets = std::move(part_offsets),
       part_cols = std::move(part_cols),
       part_gathered = std::move(part_gathered),
       part_indices = std::move(part_indices)](Tape& tape, int self) {
        const Tensor& out_grad = tape.nodes_[self].grad;
        for (std::size_t p = 0; p < part_ids.size(); ++p) {
          Node& part_node = tape.nodes_[part_ids[p]];
          if (!part_node.requires_grad) continue;
          if (part_gathered[p] != 0) {
            tape.backend_->ScatterAddRows(out_grad, part_indices[p],
                                          part_node.grad, part_offsets[p]);
          } else {
            tape.backend_->AccumulateColumnBlock(out_grad, part_offsets[p],
                                                 part_node.grad, 0,
                                                 part_cols[p]);
          }
        }
      });
}

Var Tape::SumAll(Var a) {
  Tensor out = NewValue(1, 1);
  out.at(0, 0) = static_cast<float>(backend_->SumAll(value(a)));
  const int a_id = a.id();
  return MakeNode(std::move(out), RequiresGrad(a),
                  [a_id](Tape& tape, int self) {
                    Node& a_node = tape.nodes_[a_id];
                    if (!a_node.requires_grad) return;
                    tape.backend_->AccumulateConstant(
                        tape.nodes_[self].grad.scalar(), a_node.grad);
                  });
}

Var Tape::MeanAll(Var a) {
  const Tensor& a_value = value(a);
  const float inverse_count =
      1.0f / static_cast<float>(std::max<std::size_t>(1, a_value.size()));
  Tensor out = NewValue(1, 1);
  out.at(0, 0) =
      static_cast<float>(backend_->SumAll(a_value)) * inverse_count;
  const int a_id = a.id();
  return MakeNode(std::move(out), RequiresGrad(a),
                  [a_id, inverse_count](Tape& tape, int self) {
                    Node& a_node = tape.nodes_[a_id];
                    if (!a_node.requires_grad) return;
                    tape.backend_->AccumulateConstant(
                        tape.nodes_[self].grad.scalar() * inverse_count,
                        a_node.grad);
                  });
}

void Tape::Backward(Var loss) {
  Node& loss_node = node(loss);
  GRANITE_CHECK_MSG(loss_node.requires_grad,
                    "Backward() on a non-differentiable loss");
  GRANITE_CHECK_MSG(
      loss_node.value.rows() == 1 && loss_node.value.cols() == 1,
      "loss must be a 1x1 tensor");
  loss_node.grad.at(0, 0) = 1.0f;
  for (int id = loss.id(); id >= 0; --id) {
    Node& current = nodes_[id];
    if (!current.requires_grad || !current.backward) continue;
    current.backward(*this, id);
  }
}

}  // namespace granite::ml
