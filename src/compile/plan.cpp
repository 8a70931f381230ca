#include "compile/plan.hpp"

#include <sstream>
#include <variant>

namespace mfdfp::compile {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void hash_value(std::uint64_t& h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  hash_bytes(h, &value, sizeof(value));
}

}  // namespace

std::uint64_t qnet_content_hash(const hw::QNetDesc& desc) {
  std::uint64_t h = kFnvOffset;
  hash_value(h, desc.input_frac);
  for (const hw::QLayer& layer : desc.layers) {
    hash_value(h, layer.index());
    if (const auto* conv = std::get_if<hw::QConv>(&layer)) {
      hash_value(h, conv->in_c);
      hash_value(h, conv->out_c);
      hash_value(h, conv->kernel);
      hash_value(h, conv->stride);
      hash_value(h, conv->pad);
      hash_value(h, conv->out_frac);
      hash_bytes(h, conv->packed_weights.data(), conv->packed_weights.size());
      hash_bytes(h, conv->bias_codes.data(), conv->bias_codes.size());
    } else if (const auto* fc = std::get_if<hw::QFullyConnected>(&layer)) {
      hash_value(h, fc->in_features);
      hash_value(h, fc->out_features);
      hash_value(h, fc->out_frac);
      hash_bytes(h, fc->packed_weights.data(), fc->packed_weights.size());
      hash_bytes(h, fc->bias_codes.data(), fc->bias_codes.size());
    } else if (const auto* pool = std::get_if<hw::QPool>(&layer)) {
      hash_value(h, pool->is_max);
      hash_value(h, pool->window);
      hash_value(h, pool->stride);
      hash_value(h, pool->pad);
      hash_value(h, pool->out_frac);
    } else if (const auto* relu = std::get_if<hw::QRelu>(&layer)) {
      hash_value(h, relu->out_frac);
    } else if (const auto* flat = std::get_if<hw::QFlatten>(&layer)) {
      hash_value(h, flat->out_frac);
    }
  }
  return h;
}

std::string CompiledPlan::describe() const {
  std::ostringstream out;
  out << "plan " << model << " (" << in_c << "x" << in_h << "x" << in_w
      << " -> " << out_features << " logits, " << steps.size() << " steps, "
      << "hash " << std::hex << content_hash << std::dec << ")\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    out << "  [" << i << "] " << s.label << "  src=L" << s.source_layer;
    if (s.kind == StepKind::kConv) {
      out << "  " << s.in_c << "x" << s.in_h << "x" << s.in_w << " -> "
          << s.out_c << "x" << s.out_h << "x" << s.out_w;
    } else if (s.kind == StepKind::kFullyConnected) {
      out << "  " << s.in_features << " -> " << s.out_features;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace mfdfp::compile
