#include "hw/qnet_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

namespace mfdfp::hw {
namespace {

constexpr char kMagic[4] = {'M', 'F', 'H', 'W'};
constexpr std::uint32_t kVersion = 1;

enum class Tag : std::uint8_t {
  kConv = 1,
  kFullyConnected = 2,
  kPool = 3,
  kRelu = 4,
  kFlatten = 5,
};

/// A declared weight count, the product of `factors`; throws instead of
/// wrapping.
std::size_t weight_count(const char* layer,
                         std::initializer_list<std::size_t> factors) {
  std::size_t count = 1;
  for (const std::size_t factor : factors) {
    if (factor != 0 && count > SIZE_MAX / factor) {
      throw std::runtime_error(std::string("qnet: ") + layer +
                               " weight count overflow");
    }
    count *= factor;
  }
  return count;
}

class Writer {
 public:
  void bytes(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  template <typename T>
  void put(T value) {
    bytes(&value, sizeof value);
  }
  void blob(const std::vector<std::uint8_t>& data) {
    put(static_cast<std::uint64_t>(data.size()));
    bytes(data.data(), data.size());
  }
  void blob(const std::vector<std::int8_t>& data) {
    put(static_cast<std::uint64_t>(data.size()));
    bytes(data.data(), data.size());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class Parser {
 public:
  explicit Parser(const std::string& bytes) : bytes_(bytes) {}

  void read(void* dst, std::size_t size) {
    if (pos_ + size > bytes_.size()) {
      throw std::runtime_error("qnet: truncated stream");
    }
    // An empty blob's vector has no storage: memcpy from/to null is UB even
    // for zero bytes.
    if (size == 0) return;
    std::memcpy(dst, bytes_.data() + pos_, size);
    pos_ += size;
  }
  template <typename T>
  T get() {
    T value;
    read(&value, sizeof value);
    return value;
  }
  template <typename Byte>
  std::vector<Byte> blob() {
    const auto size = get<std::uint64_t>();
    if (size > bytes_.size() - pos_) {
      throw std::runtime_error("qnet: blob length exceeds stream");
    }
    std::vector<Byte> data(static_cast<std::size_t>(size));
    read(data.data(), data.size());
    return data;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string qnet_to_bytes(const QNetDesc& desc) {
  Writer w;
  w.bytes(kMagic, sizeof kMagic);
  w.put(kVersion);
  w.put(static_cast<std::uint32_t>(desc.name.size()));
  w.bytes(desc.name.data(), desc.name.size());
  w.put(static_cast<std::int32_t>(desc.input_frac));
  w.put(static_cast<std::uint64_t>(desc.layers.size()));
  for (const QLayer& layer : desc.layers) {
    if (const auto* conv = std::get_if<QConv>(&layer)) {
      w.put(static_cast<std::uint8_t>(Tag::kConv));
      w.put(static_cast<std::uint64_t>(conv->in_c));
      w.put(static_cast<std::uint64_t>(conv->out_c));
      w.put(static_cast<std::uint64_t>(conv->kernel));
      w.put(static_cast<std::uint64_t>(conv->stride));
      w.put(static_cast<std::uint64_t>(conv->pad));
      w.put(static_cast<std::int32_t>(conv->out_frac));
      w.blob(conv->packed_weights);
      w.blob(conv->bias_codes);
    } else if (const auto* fc = std::get_if<QFullyConnected>(&layer)) {
      w.put(static_cast<std::uint8_t>(Tag::kFullyConnected));
      w.put(static_cast<std::uint64_t>(fc->in_features));
      w.put(static_cast<std::uint64_t>(fc->out_features));
      w.put(static_cast<std::int32_t>(fc->out_frac));
      w.blob(fc->packed_weights);
      w.blob(fc->bias_codes);
    } else if (const auto* pool = std::get_if<QPool>(&layer)) {
      w.put(static_cast<std::uint8_t>(Tag::kPool));
      w.put(static_cast<std::uint8_t>(pool->is_max ? 1 : 0));
      w.put(static_cast<std::uint64_t>(pool->window));
      w.put(static_cast<std::uint64_t>(pool->stride));
      w.put(static_cast<std::uint64_t>(pool->pad));
      w.put(static_cast<std::int32_t>(pool->out_frac));
    } else if (const auto* relu = std::get_if<QRelu>(&layer)) {
      w.put(static_cast<std::uint8_t>(Tag::kRelu));
      w.put(static_cast<std::int32_t>(relu->out_frac));
    } else if (const auto* flat = std::get_if<QFlatten>(&layer)) {
      w.put(static_cast<std::uint8_t>(Tag::kFlatten));
      w.put(static_cast<std::int32_t>(flat->out_frac));
    }
  }
  return w.take();
}

QNetDesc qnet_from_bytes(const std::string& bytes) {
  Parser p(bytes);
  char magic[4];
  p.read(magic, sizeof magic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error("qnet: bad magic");
  }
  if (p.get<std::uint32_t>() != kVersion) {
    throw std::runtime_error("qnet: unsupported version");
  }
  QNetDesc desc;
  const auto name_len = p.get<std::uint32_t>();
  desc.name.resize(name_len);
  p.read(desc.name.data(), name_len);
  desc.input_frac = p.get<std::int32_t>();
  const auto layer_count = p.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < layer_count; ++i) {
    const auto tag = static_cast<Tag>(p.get<std::uint8_t>());
    switch (tag) {
      case Tag::kConv: {
        QConv conv;
        conv.in_c = p.get<std::uint64_t>();
        conv.out_c = p.get<std::uint64_t>();
        conv.kernel = p.get<std::uint64_t>();
        conv.stride = p.get<std::uint64_t>();
        conv.pad = p.get<std::uint64_t>();
        conv.out_frac = p.get<std::int32_t>();
        conv.packed_weights = p.blob<std::uint8_t>();
        conv.bias_codes = p.blob<std::int8_t>();
        if (conv.kernel == 0 || conv.stride == 0) {
          throw std::runtime_error("qnet: conv with zero kernel or stride");
        }
        const std::size_t weights = weight_count(
            "conv", {conv.out_c, conv.in_c, conv.kernel, conv.kernel});
        if (conv.packed_weights.size() != weights / 2 + weights % 2 ||
            conv.bias_codes.size() != conv.out_c) {
          throw std::runtime_error("qnet: conv blob size mismatch");
        }
        desc.layers.emplace_back(std::move(conv));
        break;
      }
      case Tag::kFullyConnected: {
        QFullyConnected fc;
        fc.in_features = p.get<std::uint64_t>();
        fc.out_features = p.get<std::uint64_t>();
        fc.out_frac = p.get<std::int32_t>();
        fc.packed_weights = p.blob<std::uint8_t>();
        fc.bias_codes = p.blob<std::int8_t>();
        const std::size_t weights =
            weight_count("fc", {fc.in_features, fc.out_features});
        if (fc.packed_weights.size() != weights / 2 + weights % 2 ||
            fc.bias_codes.size() != fc.out_features) {
          throw std::runtime_error("qnet: fc blob size mismatch");
        }
        desc.layers.emplace_back(std::move(fc));
        break;
      }
      case Tag::kPool: {
        QPool pool;
        pool.is_max = p.get<std::uint8_t>() != 0;
        pool.window = p.get<std::uint64_t>();
        pool.stride = p.get<std::uint64_t>();
        pool.pad = p.get<std::uint64_t>();
        pool.out_frac = p.get<std::int32_t>();
        if (pool.window == 0 || pool.stride == 0) {
          throw std::runtime_error("qnet: pool with zero window or stride");
        }
        desc.layers.emplace_back(pool);
        break;
      }
      case Tag::kRelu:
        desc.layers.emplace_back(QRelu{p.get<std::int32_t>()});
        break;
      case Tag::kFlatten:
        desc.layers.emplace_back(QFlatten{p.get<std::int32_t>()});
        break;
      default:
        throw std::runtime_error("qnet: unknown layer tag");
    }
  }
  if (!p.exhausted()) throw std::runtime_error("qnet: trailing bytes");
  check_radices(desc, "qnet");
  return desc;
}

void save_qnet(const QNetDesc& desc, const std::string& path) {
  const std::string bytes = qnet_to_bytes(desc);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("qnet: cannot open " + path);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) throw std::runtime_error("qnet: write failed for " + path);
}

QNetDesc load_qnet(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("qnet: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return qnet_from_bytes(buffer.str());
}

}  // namespace mfdfp::hw
