#include "models/builder.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.h"
#include "util/strings.h"

namespace fastt {
namespace {

constexpr int64_t kF32 = 4;  // bytes per element

// Spatial output size under TF "SAME"/"VALID" padding.
int64_t ConvOut(int64_t in, int kernel, int stride, bool same) {
  if (same) return (in + stride - 1) / stride;
  return (in - kernel) / stride + 1;
}

// Graph::TopoOrder restricted to `ops` (ascending slot ids), a subgraph that
// shares no edge with the rest of `g`: the same FIFO Kahn walk, seeded in
// slot order, visits such a subgraph in the same order whether or not the
// rest of the graph is walked too.
std::vector<OpId> SubgraphTopoOrder(const Graph& g,
                                    const std::vector<OpId>& ops) {
  if (ops.empty()) return {};
  const OpId first = ops.front();
  std::vector<int32_t> in_degree(static_cast<size_t>(ops.back() - first + 1),
                                 0);
  auto degree = [&](OpId id) -> int32_t& {
    return in_degree[static_cast<size_t>(id - first)];
  };
  for (OpId id : ops)
    for (EdgeId e : g.in_edges(id))
      if (!g.edge(e).dead && !g.op(g.edge(e).src).dead) ++degree(id);
  std::deque<OpId> ready;
  for (OpId id : ops)
    if (degree(id) == 0) ready.push_back(id);
  std::vector<OpId> order;
  order.reserve(ops.size());
  while (!ready.empty()) {
    const OpId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.dst).dead) continue;
      FASTT_CHECK_MSG(edge.dst >= first && edge.dst <= ops.back(),
                      "the model's forward ops must not feed other ops");
      if (--degree(edge.dst) == 0) ready.push_back(edge.dst);
    }
  }
  FASTT_CHECK_MSG(order.size() == ops.size(),
                  "the model's forward ops must form a closed acyclic graph");
  return order;
}

}  // namespace

ModelBuilder::ModelBuilder(Graph& graph, std::string prefix, int64_t batch)
    : graph_(graph), prefix_(std::move(prefix)), batch_(batch) {
  FASTT_CHECK(batch_ >= 1);
}

std::string ModelBuilder::Name(const std::string& suffix) const {
  return prefix_.empty() ? suffix : prefix_ + "/" + suffix;
}

const TensorShape& ModelBuilder::shape_of(OpId op) const {
  return graph_.op(op).output_shape;
}

OpId ModelBuilder::AddForwardOp(const std::string& name, OpType type,
                                TensorShape shape, double flops,
                                int64_t bytes_touched, int64_t param_bytes,
                                const std::vector<OpId>& data_preds,
                                const std::vector<int64_t>& pred_bytes) {
  Operation op;
  op.name = Name(name);
  op.cost_key = name;  // replicas share cost-model entries
  op.type = type;
  op.output_shape = std::move(shape);
  op.flops = flops;
  op.bytes_touched = bytes_touched;
  op.param_bytes = param_bytes;
  op.batch = op.output_shape.rank() > 0 ? op.output_shape.dim(0) : 0;
  op.channels = op.output_shape.rank() > 1
                    ? op.output_shape.dim(op.output_shape.rank() - 1)
                    : 0;
  const OpId id = graph_.AddOp(std::move(op));
  for (size_t i = 0; i < data_preds.size(); ++i) {
    const int64_t bytes =
        i < pred_bytes.size() ? pred_bytes[i] : int64_t{-1};
    graph_.AddEdge(data_preds[i], id, bytes);
  }
  forward_ops_.push_back(id);
  return id;
}

void ModelBuilder::RegisterGrad(OpId op, GradInfo info) {
  grad_info_[op] = std::move(info);
}

OpId ModelBuilder::AddVariable(const std::string& name, int64_t param_bytes) {
  Operation op;
  op.name = Name(name);
  op.cost_key = name;
  op.type = OpType::kVariable;
  op.output_shape = TensorShape{param_bytes / 4};
  // The output tensor IS the parameter storage; it stays resident until the
  // last (backward) consumer releases it. bytes_touched stays 0: reading
  // resident weights on their own device is free.
  const OpId id = graph_.AddOp(std::move(op));
  forward_ops_.push_back(id);
  return id;
}

OpId ModelBuilder::Input(const std::string& name, TensorShape shape,
                         DType dtype) {
  Operation op;
  op.name = Name(name);
  op.cost_key = name;
  op.type = OpType::kInput;
  op.output_shape = std::move(shape);
  op.dtype = dtype;
  op.bytes_touched = op.output_bytes();
  op.batch = op.output_shape.rank() > 0 ? op.output_shape.dim(0) : 0;
  const OpId id = graph_.AddOp(std::move(op));
  forward_ops_.push_back(id);
  return id;
}

OpId ModelBuilder::Conv2D(const std::string& name, OpId in, int kernel,
                          int out_channels, int stride, int padding_same) {
  return Conv2DRect(name, in, kernel, kernel, out_channels, stride,
                    padding_same != 0);
}

OpId ModelBuilder::Conv2DRect(const std::string& name, OpId in, int kh,
                              int kw, int out_channels, int stride,
                              bool padding_same) {
  const TensorShape& is = shape_of(in);
  FASTT_CHECK_MSG(is.rank() == 4, "Conv2D input must be NHWC: " + name);
  const int64_t b = is.dim(0), h = is.dim(1), w = is.dim(2), cin = is.dim(3);
  const int64_t ho = ConvOut(h, kh, stride, padding_same);
  const int64_t wo = ConvOut(w, kw, stride, padding_same);
  const TensorShape out{b, ho, wo, out_channels};
  const double flops = 2.0 * static_cast<double>(b * ho * wo) *
                       kh * kw * static_cast<double>(cin) * out_channels;
  const int64_t weights =
      (int64_t{kh} * kw * cin * out_channels + out_channels) * kF32;
  const int64_t bytes = is.ByteSize(DType::kF32) + out.ByteSize(DType::kF32) +
                        weights;
  const OpId var = AddVariable(name + "/weights", weights);
  const OpId id = AddForwardOp(name, OpType::kConv2D, out, flops, bytes, 0,
                               {in, var});
  // Winograd-eligible spatial kernels run near peak; 1x1 convs are
  // bandwidth-limited GEMMs.
  graph_.mutable_op(id).efficiency_override = kh * kw >= 9 ? 0.82 : 0.55;
  GradInfo gi;
  // dX reads the filter (the other data input) and the incoming gradient.
  gi.inputs.push_back(InputGradSpec{in, OpType::kConv2DBackpropInput, flops,
                                    bytes, ActNeed::kOtherPredOutput, true,
                                    1.0});
  gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, false, 1.0});
  // dW reads the input activation — this keeps it alive until backward.
  gi.wgrad = WGradSpec{true, OpType::kConv2DBackpropFilter, flops, bytes,
                       ActNeed::kPredOutput};
  gi.variable = var;
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Elementwise(const std::string& name, OpType fwd,
                               OpType bwd, OpId in, double byte_factor,
                               ActNeed act) {
  const TensorShape out = shape_of(in);
  const int64_t obytes = out.ByteSize(DType::kF32);
  const int64_t bytes =
      static_cast<int64_t>(byte_factor * static_cast<double>(obytes));
  const OpId id = AddForwardOp(name, fwd, out, 0.0, bytes, 0, {in});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, bwd, 0.0, bytes + obytes, act, true,
                                    1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::MaxPool(const std::string& name, OpId in, int kernel,
                           int stride) {
  const TensorShape& is = shape_of(in);
  FASTT_CHECK(is.rank() == 4);
  const TensorShape out{is.dim(0), ConvOut(is.dim(1), kernel, stride, false),
                        ConvOut(is.dim(2), kernel, stride, false), is.dim(3)};
  const int64_t bytes =
      is.ByteSize(DType::kF32) + out.ByteSize(DType::kF32);
  const OpId id =
      AddForwardOp(name, OpType::kMaxPool, out, 0.0, bytes, 0, {in});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, OpType::kMaxPoolGrad, 0.0, 2 * bytes,
                                    ActNeed::kOwnOutput, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::AvgPool(const std::string& name, OpId in, int kernel,
                           int stride) {
  const TensorShape& is = shape_of(in);
  FASTT_CHECK(is.rank() == 4);
  const TensorShape out{is.dim(0), ConvOut(is.dim(1), kernel, stride, false),
                        ConvOut(is.dim(2), kernel, stride, false), is.dim(3)};
  const int64_t bytes =
      is.ByteSize(DType::kF32) + out.ByteSize(DType::kF32);
  const OpId id =
      AddForwardOp(name, OpType::kAvgPool, out, 0.0, bytes, 0, {in});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, OpType::kAvgPoolGrad, 0.0, 2 * bytes,
                                    ActNeed::kNone, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::GlobalAvgPool(const std::string& name, OpId in) {
  const TensorShape& is = shape_of(in);
  FASTT_CHECK(is.rank() == 4);
  const TensorShape out{is.dim(0), is.dim(3)};
  const int64_t bytes = is.ByteSize(DType::kF32);
  const OpId id =
      AddForwardOp(name, OpType::kAvgPool, out, 0.0, bytes, 0, {in});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, OpType::kAvgPoolGrad, 0.0, bytes,
                                    ActNeed::kNone, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Relu(const std::string& name, OpId in) {
  // ReluGrad reads the relu *output*, so the pre-activation dies in forward.
  return Elementwise(name, OpType::kRelu, OpType::kReluGrad, in, 2.0,
                     ActNeed::kOwnOutput);
}

OpId ModelBuilder::BatchNorm(const std::string& name, OpId in) {
  const TensorShape out = shape_of(in);
  const int64_t c = out.dim(out.rank() - 1);
  const int64_t obytes = out.ByteSize(DType::kF32);
  const int64_t weights = 4 * c * kF32;  // scale, offset, moving mean/var
  const OpId var = AddVariable(name + "/weights", weights);
  const OpId id = AddForwardOp(name, OpType::kBatchNorm, out, 0.0,
                               3 * obytes, 0, {in, var});
  GradInfo gi;
  // BN grad re-reads the normalized input: the conv output stays alive.
  gi.inputs.push_back(InputGradSpec{in, OpType::kBatchNormGrad, 0.0,
                                    4 * obytes, ActNeed::kPredOutput, true,
                                    1.0});
  gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, false, 1.0});
  gi.wgrad = WGradSpec{true, OpType::kBatchNormGrad, 0.0, obytes,
                       ActNeed::kNone};
  gi.variable = var;
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::LRN(const std::string& name, OpId in) {
  return Elementwise(name, OpType::kLRN, OpType::kLRNGrad, in, 3.0,
                     ActNeed::kPredOutput);
}

OpId ModelBuilder::Dropout(const std::string& name, OpId in) {
  // Forward writes output + mask; backward re-reads the mask (own output).
  return Elementwise(name, OpType::kDropout, OpType::kDropoutGrad, in, 2.25,
                     ActNeed::kOwnOutput);
}

OpId ModelBuilder::Add(const std::string& name, OpId a, OpId b) {
  const TensorShape out = shape_of(a);
  const int64_t obytes = out.ByteSize(DType::kF32);
  const OpId id =
      AddForwardOp(name, OpType::kAdd, out, 0.0, 3 * obytes, 0, {a, b});
  GradInfo gi;
  // Residual gradient is the identity toward both inputs.
  gi.inputs.push_back(InputGradSpec{a, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, true, 1.0});
  gi.inputs.push_back(InputGradSpec{b, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::ConcatChannels(const std::string& name,
                                  const std::vector<OpId>& ins) {
  FASTT_CHECK(!ins.empty());
  const TensorShape& first = shape_of(ins[0]);
  FASTT_CHECK(first.rank() >= 2);
  int64_t channels = 0;
  int64_t bytes = 0;
  for (OpId in : ins) {
    const TensorShape& s = shape_of(in);
    channels += s.dim(s.rank() - 1);
    bytes += s.ByteSize(DType::kF32);
  }
  const TensorShape out = first.WithDim(first.rank() - 1, channels);
  const OpId id =
      AddForwardOp(name, OpType::kConcat, out, 0.0, 2 * bytes, 0, ins);
  GradInfo gi;
  for (OpId in : ins) {
    gi.inputs.push_back(InputGradSpec{in, OpType::kIdentity, 0.0,
                                      shape_of(in).ByteSize(DType::kF32),
                                      ActNeed::kNone, true, 1.0});
  }
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::ConcatSteps(const std::string& name,
                               const std::vector<OpId>& steps, int64_t seq,
                               int64_t hidden, int64_t b) {
  FASTT_CHECK(static_cast<int64_t>(steps.size()) == seq);
  const TensorShape out{b, seq, hidden};
  const int64_t obytes = out.ByteSize(DType::kF32);
  const OpId id = AddForwardOp(name, OpType::kConcat, out, 0.0, 2 * obytes,
                               0, steps);
  GradInfo gi;
  for (OpId step : steps) {
    // Stack gradient slices back to each timestep.
    gi.inputs.push_back(InputGradSpec{step, OpType::kIdentity, 0.0,
                                      2 * b * hidden * 4, ActNeed::kNone,
                                      true, 1.0});
  }
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Dense(const std::string& name, OpId in, int64_t units,
                         bool relu) {
  const TensorShape& is = shape_of(in);
  const int64_t b = is.dim(0);
  const int64_t k = is.num_elements() / b;
  const TensorShape out{b, units};
  const double flops = 2.0 * static_cast<double>(b) *
                       static_cast<double>(k) * static_cast<double>(units);
  const int64_t weights = k * units * kF32;
  const int64_t bytes = is.ByteSize(DType::kF32) +
                        out.ByteSize(DType::kF32) + weights;
  const OpId var = AddVariable(name + "/weights", weights);
  const OpId mm = AddForwardOp(name, OpType::kMatMul, out, flops, bytes, 0,
                               {in, var});
  {
    GradInfo gi;
    gi.inputs.push_back(InputGradSpec{in, OpType::kMatMul, flops, bytes,
                                      ActNeed::kOtherPredOutput, true, 1.0});
    gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                      ActNeed::kNone, false, 1.0});
    gi.wgrad = WGradSpec{true, OpType::kMatMul, flops, bytes,
                         ActNeed::kPredOutput};
    gi.variable = var;
    RegisterGrad(mm, std::move(gi));
  }
  const int64_t bias = units * kF32;
  const OpId bvar = AddVariable(name + "_bias/weights", bias);
  const OpId ba = AddForwardOp(name + "_bias", OpType::kBiasAdd, out, 0.0,
                               2 * out.ByteSize(DType::kF32), 0, {mm, bvar});
  {
    GradInfo gi;
    gi.inputs.push_back(InputGradSpec{mm, OpType::kIdentity, 0.0, 0,
                                      ActNeed::kNone, true, 1.0});
    gi.inputs.push_back(InputGradSpec{bvar, OpType::kIdentity, 0.0, 0,
                                      ActNeed::kNone, false, 1.0});
    gi.wgrad = WGradSpec{true, OpType::kBiasAddGrad, 0.0,
                         out.ByteSize(DType::kF32), ActNeed::kNone};
    gi.variable = bvar;
    RegisterGrad(ba, std::move(gi));
  }
  return relu ? Relu(name + "_relu", ba) : ba;
}

OpId ModelBuilder::MatMulAct(const std::string& name, OpId a, OpId b,
                             int64_t m, int64_t k, int64_t n,
                             int64_t batch_mult) {
  const TensorShape out{batch_mult, m, n};
  const double flops = 2.0 * static_cast<double>(batch_mult) *
                       static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  const int64_t bytes = shape_of(a).ByteSize(DType::kF32) +
                        shape_of(b).ByteSize(DType::kF32) +
                        out.ByteSize(DType::kF32);
  const OpId id = AddForwardOp(name, OpType::kMatMul, out, flops, bytes, 0,
                               {a, b});
  GradInfo gi;
  // dA = dY · Bᵀ needs B; dB = Aᵀ · dY needs A.
  gi.inputs.push_back(InputGradSpec{a, OpType::kMatMul, flops, bytes,
                                    ActNeed::kOtherPredOutput, true, 1.0});
  gi.inputs.push_back(InputGradSpec{b, OpType::kMatMul, flops, bytes,
                                    ActNeed::kOtherPredOutput, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Softmax(const std::string& name, OpId in) {
  return Elementwise(name, OpType::kSoftmax, OpType::kSoftmaxGrad, in, 3.0,
                     ActNeed::kOwnOutput);
}

OpId ModelBuilder::LayerNorm(const std::string& name, OpId in) {
  const TensorShape out = shape_of(in);
  const int64_t c = out.dim(out.rank() - 1);
  const int64_t obytes = out.ByteSize(DType::kF32);
  const OpId var = AddVariable(name + "/weights", 2 * c * kF32);
  const OpId id = AddForwardOp(name, OpType::kLayerNorm, out, 0.0,
                               3 * obytes, 0, {in, var});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, OpType::kLayerNormGrad, 0.0,
                                    4 * obytes, ActNeed::kPredOutput, true,
                                    1.0});
  gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, false, 1.0});
  gi.wgrad = WGradSpec{true, OpType::kLayerNormGrad, 0.0, obytes,
                       ActNeed::kNone};
  gi.variable = var;
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Gelu(const std::string& name, OpId in) {
  // TF expands tanh-gelu into a chain of ~8 elementwise kernels (pow, mul,
  // add, tanh, …) whose intermediates are all retained for the backward
  // pass; modeling five stages reproduces both the op count and the
  // activation footprint of the BERT reference implementation.
  OpId h = in;
  for (const char* stage : {"_a", "_b", "_c", "_d", "_e"}) {
    h = Elementwise(name + stage, OpType::kGelu, OpType::kGeluGrad, h, 2.0,
                    ActNeed::kPredOutput);
  }
  return h;
}

OpId ModelBuilder::Embedding(const std::string& name, OpId ids, int64_t vocab,
                             int64_t hidden, int64_t seq) {
  const int64_t b = shape_of(ids).dim(0);
  const TensorShape out{b, seq, hidden};
  const int64_t weights = vocab * hidden * kF32;
  const int64_t obytes = out.ByteSize(DType::kF32);
  const OpId var = AddVariable(name + "/weights", weights);
  const OpId id = AddForwardOp(name, OpType::kEmbeddingLookup, out, 0.0,
                               2 * obytes, 0, {ids, var});
  GradInfo gi;
  // Token ids are not differentiable; only the table gets a gradient.
  gi.inputs.push_back(InputGradSpec{ids, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, false, 1.0});
  gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, false, 1.0});
  gi.wgrad = WGradSpec{true, OpType::kEmbeddingGrad, 0.0, 2 * obytes,
                       ActNeed::kPredOutput};
  gi.variable = var;
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::Transpose(const std::string& name, OpId in) {
  const TensorShape out = shape_of(in);
  const int64_t obytes = out.ByteSize(DType::kF32);
  const OpId id = AddForwardOp(name, OpType::kIdentity, out, 0.0, 2 * obytes,
                               0, {in});
  GradInfo gi;
  // kPredOutput: in TF graphs the pre-transpose tensor typically has other
  // backward consumers; retaining it matches observed training footprints.
  gi.inputs.push_back(InputGradSpec{in, OpType::kIdentity, 0.0, 2 * obytes,
                                    ActNeed::kPredOutput, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

OpId ModelBuilder::MaskAdd(const std::string& name, OpId in) {
  return Elementwise(name, OpType::kAdd, OpType::kIdentity, in, 2.0,
                     ActNeed::kPredOutput);
}

OpId ModelBuilder::Reshape(const std::string& name, OpId in,
                           TensorShape shape) {
  FASTT_CHECK_MSG(shape.num_elements() == shape_of(in).num_elements(),
                  "reshape changes element count: " + name);
  const OpId id =
      AddForwardOp(name, OpType::kIdentity, std::move(shape), 0.0, 0, 0,
                   {in});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{in, OpType::kIdentity, 0.0, 0,
                                    ActNeed::kNone, true, 1.0});
  RegisterGrad(id, std::move(gi));
  return id;
}

std::vector<OpId> ModelBuilder::LSTMLayer(const std::string& name, OpId x_seq,
                                          int64_t seq, int64_t input_dim,
                                          int64_t hidden) {
  const int64_t b = shape_of(x_seq).dim(0);
  const int64_t slice_bytes = b * input_dim * kF32;
  const double cell_flops =
      2.0 * static_cast<double>(b) * 4.0 *
          static_cast<double>(hidden) *
          static_cast<double>(input_dim + hidden) +
      30.0 * static_cast<double>(b * hidden);
  const int64_t weights = 4 * (input_dim + hidden + 1) * hidden * kF32;
  const int64_t cell_bytes =
      slice_bytes + 2 * b * hidden * kF32 + weights / 4;

  std::vector<OpId> hs;
  const OpId var = AddVariable(name + "/weights", weights);
  OpId prev = kInvalidOp;
  for (int64_t t = 0; t < seq; ++t) {
    // Per-step input slice (TF's unstack materializes these).
    const OpId slice = AddForwardOp(
        StrFormat("%s/x%lld", name.c_str(), (long long)t), OpType::kSplit,
        TensorShape{b, input_dim}, 0.0, 2 * slice_bytes, 0, {x_seq},
        {slice_bytes});
    {
      GradInfo gi;
      // Slice gradient is a 1/seq-sized identity back into the sequence.
      gi.inputs.push_back(InputGradSpec{x_seq, OpType::kIdentity, 0.0,
                                        slice_bytes, ActNeed::kNone, true,
                                        1.0 / static_cast<double>(seq)});
      RegisterGrad(slice, std::move(gi));
    }
    std::vector<OpId> preds{slice, var};
    std::vector<int64_t> pred_bytes{slice_bytes, weights};
    if (prev != kInvalidOp) {
      preds.push_back(prev);
      pred_bytes.push_back(2 * b * hidden * kF32);  // h and c states
    }
    const OpId cell = AddForwardOp(
        StrFormat("%s/cell%lld", name.c_str(), (long long)t),
        OpType::kLSTMCell, TensorShape{b, hidden}, cell_flops, cell_bytes,
        0, preds, pred_bytes);
    if (t > 0) {
      graph_.mutable_op(cell).cost_basis_key =
          graph_.op(hs.front()).CostKey();
    }
    GradInfo gi;
    // Toward the input slice: the lighter recomputation.
    gi.inputs.push_back(InputGradSpec{slice, OpType::kLSTMCellGrad,
                                      0.6 * cell_flops, cell_bytes,
                                      ActNeed::kOwnOutput, true, 1.0});
    gi.inputs.push_back(InputGradSpec{var, OpType::kIdentity, 0.0, 0,
                                      ActNeed::kNone, false, 1.0});
    if (prev != kInvalidOp) {
      // Toward the previous step: the recurrent (critical-path) gradient.
      gi.inputs.push_back(InputGradSpec{prev, OpType::kLSTMCellGrad,
                                        1.4 * cell_flops, cell_bytes,
                                        ActNeed::kOwnOutput, true, 1.0});
    }
    if (t == 0) {
      gi.wgrad = WGradSpec{true, OpType::kLSTMCellGrad, 0.0,
                           weights, ActNeed::kNone};
      gi.variable = var;
    }
    RegisterGrad(cell, std::move(gi));
    hs.push_back(cell);
    prev = cell;
  }
  return hs;
}

OpId ModelBuilder::SoftmaxCrossEntropy(const std::string& name, OpId logits,
                                       int64_t classes) {
  const int64_t b = shape_of(logits).dim(0);
  const TensorShape out{b};
  const int64_t lbytes = b * classes * kF32;
  const OpId id = AddForwardOp(name, OpType::kSoftmaxCrossEntropy, out, 0.0,
                               2 * lbytes, 0, {logits});
  GradInfo gi;
  gi.inputs.push_back(InputGradSpec{logits, OpType::kSoftmaxCrossEntropyGrad,
                                    0.0, 2 * lbytes, ActNeed::kPredOutput,
                                    true, 1.0});
  RegisterGrad(id, std::move(gi));
  FASTT_CHECK_MSG(loss_ == kInvalidOp, "model already has a loss");
  loss_ = id;
  return id;
}

void ModelBuilder::Finish() {
  FASTT_CHECK_MSG(!finished_, "Finish() called twice");
  FASTT_CHECK_MSG(loss_ != kInvalidOp, "model has no loss op");
  finished_ = true;

  // Gradient contributions (producers of dL/d(output of op)).
  std::unordered_map<OpId, std::vector<OpId>> pending;

  // Reverse topological order over the forward subgraph. A replica graph
  // also holds the replicas built before this one; walking only this
  // model's ops keeps building R replicas linear in R.
  std::vector<OpId> order = SubgraphTopoOrder(graph_, forward_ops_);
  std::reverse(order.begin(), order.end());

  for (OpId f : order) {
    auto info_it = grad_info_.find(f);
    if (info_it == grad_info_.end()) continue;  // Input or gradient-free op
    // Copy: adding gradient ops below reallocates the op table.
    const Operation fop = graph_.op(f);

    // Combine upstream gradient contributions into one tensor.
    OpId g = kInvalidOp;
    auto pend_it = pending.find(f);
    const bool is_loss = (f == loss_);
    if (pend_it == pending.end() || pend_it->second.empty()) {
      if (!is_loss) continue;  // nothing consumes this op's output downstream
      g = f;                   // loss: implicit upstream gradient of 1
    } else if (pend_it->second.size() == 1) {
      g = pend_it->second[0];
    } else {
      Operation sum;
      sum.name = fop.name + "/grad_sum";
      sum.cost_key = fop.CostKey() + "/grad_sum";
      sum.type = OpType::kAdd;
      sum.output_shape = fop.output_shape;
      sum.bytes_touched =
          static_cast<int64_t>(pend_it->second.size() + 1) *
          fop.output_bytes();
      sum.batch = fop.batch;
      sum.is_backward = true;
      g = graph_.AddOp(std::move(sum));
      for (OpId contrib : pend_it->second) graph_.AddEdge(contrib, g);
    }

    const GradInfo& info = info_it->second;

    // Weight gradient + optimizer update.
    if (info.wgrad.present) {
      FASTT_CHECK(info.variable != kInvalidOp);
      const int64_t param_bytes = graph_.op(info.variable).output_bytes();
      Operation dw;
      dw.name = fop.name + "/wgrad";
      dw.cost_key = fop.CostKey() + "/wgrad";
      dw.type = info.wgrad.type;
      dw.output_shape = TensorShape{param_bytes / kF32};
      dw.flops = info.wgrad.flops;
      dw.bytes_touched = info.wgrad.bytes;
      if (fop.efficiency_override > 0.0)
        dw.efficiency_override = 0.82 * fop.efficiency_override;
      dw.batch = fop.batch;
      dw.channels = fop.channels;
      dw.is_backward = true;
      dw.reduces_batch = true;  // weight gradients sum over the batch
      const OpId dw_id = graph_.AddOp(std::move(dw));
      graph_.AddEdge(g, dw_id, fop.output_bytes());
      if (info.wgrad.act == ActNeed::kPredOutput) {
        for (const InputGradSpec& is : info.inputs) {
          if (graph_.op(is.pred).type != OpType::kVariable)
            graph_.AddEdge(is.pred, dw_id);
        }
      } else if (info.wgrad.act == ActNeed::kOwnOutput) {
        graph_.AddEdge(f, dw_id);
      }

      Operation apply;
      apply.name = fop.name + "/apply";
      apply.cost_key = fop.CostKey() + "/apply";
      apply.type = OpType::kApplyGradient;
      apply.output_shape = TensorShape{0};
      apply.bytes_touched = 4 * param_bytes;  // read g,m,v + write w
      apply.param_bytes = 2 * param_bytes;    // Adam slots
      apply.colocate_with = info.variable;  // update runs where weights live
      apply.is_backward = true;
      const OpId apply_id = graph_.AddOp(std::move(apply));
      graph_.AddEdge(dw_id, apply_id, param_bytes);
    }

    // Gradients toward data inputs.
    for (const InputGradSpec& is : info.inputs) {
      if (!is.propagate) continue;
      if (graph_.op(is.pred).type == OpType::kInput) continue;
      // Copy: AddOp below invalidates references into the op table.
      const Operation pop = graph_.op(is.pred);
      Operation dx;
      dx.name = fop.name + "/grad_to/" + pop.CostKey();
      dx.cost_key = fop.CostKey() + "/dx_" + pop.CostKey();
      dx.type = is.type;
      if (is.out_scale == 1.0) {
        dx.output_shape = pop.output_shape;
      } else {
        const int64_t elems = std::max<int64_t>(
            1, static_cast<int64_t>(
                   is.out_scale *
                   static_cast<double>(pop.output_shape.num_elements())));
        dx.output_shape = TensorShape{elems};
      }
      dx.flops = is.flops;
      dx.bytes_touched = is.bytes;
      if (fop.efficiency_override > 0.0)
        dx.efficiency_override = 0.85 * fop.efficiency_override;
      dx.batch = fop.batch;
      dx.channels = fop.channels;
      dx.is_backward = true;
      const OpId dx_id = graph_.AddOp(std::move(dx));
      graph_.AddEdge(g, dx_id, fop.output_bytes());
      switch (is.act) {
        case ActNeed::kPredOutput:
          graph_.AddEdge(is.pred, dx_id);
          break;
        case ActNeed::kOwnOutput:
          graph_.AddEdge(f, dx_id);
          break;
        case ActNeed::kOtherPredOutput:
          for (const InputGradSpec& other : info.inputs)
            if (other.pred != is.pred) graph_.AddEdge(other.pred, dx_id);
          break;
        case ActNeed::kNone:
          break;
      }
      pending[is.pred].push_back(dx_id);
    }
  }
}

}  // namespace fastt
