// Functional (bit-accurate) execution of a QNetDesc on the accelerator.
//
// Conv and FC layers run through the shift-based neuron datapath
// (datapath.hpp) in 16-synapse tiles exactly as the NPU schedules them;
// pool/ReLU/flatten stages operate on 8-bit codes. The executor's outputs
// are bit-identical to the fake-quantized software model (quant::install_mf_dfp)
// — this invariant is enforced by integration/property tests.
//
// The executor is the reference, not the serving path: deployments lower
// each QNetDesc into a CompiledPlan (compile/) and serve that. The
// invariant every plan is held to is plan == run(), bit for bit.
#pragma once

#include <span>

#include "hw/datapath.hpp"
#include "hw/qnet.hpp"
#include "tensor/tensor.hpp"

namespace mfdfp::hw {

/// Activation tensor in code domain: 8-bit codes at a common radix `frac`.
struct CodeTensor {
  tensor::Shape shape;
  std::vector<std::int8_t> codes;
  int frac = 0;

  [[nodiscard]] std::size_t size() const noexcept { return codes.size(); }

  /// Decodes to real values.
  [[nodiscard]] tensor::Tensor decode() const;

  /// Encodes a float tensor with <8, frac>.
  [[nodiscard]] static CodeTensor encode(const tensor::Tensor& values,
                                         int frac);

  /// Encodes `values` (`shape` elements) with <8, frac> into `out`,
  /// reusing its `codes` capacity (no allocation once the buffer has grown
  /// to the batch size). The one float -> code loop of run() and the
  /// compiled plans: quant::DfpFormat::encode per element, with 2^frac
  /// computed once. values[i] * 2^frac equals encode()'s values[i] /
  /// step() because both scales are exact powers of two for |frac| <= 1023.
  static void encode_into(std::span<const float> values,
                          const tensor::Shape& shape, int frac,
                          CodeTensor& out);
};

/// Reusable scratch for compiled-plan execution (compile/plan_executor.hpp).
/// One instance per thread: activation buffers, the zero-padded sample and
/// the im2col patch buffer are recycled across steps and across batches, so
/// steady-state serving does no per-request allocation in the layer loop.
/// Not thread-safe; workers own one each.
struct ExecScratch {
  CodeTensor input;                  ///< current activation (ping)
  CodeTensor output;                 ///< next activation (pong)
  std::vector<std::int16_t> padded;  ///< one conv input sample, channels
                                     ///< last, widened, zero border
  std::vector<std::int16_t> patch;   ///< int16 im2col / FC row block
};

class AcceleratorExecutor {
 public:
  /// Predecodes weight nibbles for synapse access (quant::unpack_pow2;
  /// throws std::invalid_argument on a short weight stream) after
  /// check_radices (std::out_of_range on a radix past +-kMaxRadix). Takes
  /// the deployment image by value so callers can move large weight
  /// streams in.
  explicit AcceleratorExecutor(QNetDesc desc);

  /// Full pipeline: encode images at the input radix, run every layer on the
  /// integer datapath, decode the final activations (logits) to float. This
  /// is the datapath-faithful reference every compiled plan must match bit
  /// for bit (tests/test_compile.cpp, bench/ablation_compile).
  [[nodiscard]] tensor::Tensor run(const tensor::Tensor& images) const;

  /// Code-domain execution (exposed for layer-level tests).
  [[nodiscard]] CodeTensor run_codes(CodeTensor input) const;

  [[nodiscard]] const QNetDesc& desc() const noexcept { return desc_; }

 private:
  /// Runs one layer out-of-place: reads `input`, fills `out` (shape/frac
  /// set, codes resized reusing capacity).
  void run_conv(const QConv& conv, std::span<const quant::Pow2Weight> weights,
                const CodeTensor& input, CodeTensor& out,
                std::vector<std::size_t>& index) const;
  void run_fc(const QFullyConnected& fc,
              std::span<const quant::Pow2Weight> weights,
              const CodeTensor& input, CodeTensor& out) const;

  QNetDesc desc_;
  /// Decoded weights per layer index (empty for weight-less layers).
  std::vector<std::vector<quant::Pow2Weight>> decoded_weights_;
};

/// Averaged-logit ensemble execution (one accelerator processing unit per
/// member network, outputs combined as in paper Section 4.3).
[[nodiscard]] tensor::Tensor run_ensemble(
    std::span<const AcceleratorExecutor* const> members,
    const tensor::Tensor& images);

}  // namespace mfdfp::hw
