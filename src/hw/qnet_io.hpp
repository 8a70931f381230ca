// Binary (de)serialization of the deployment image (QNetDesc).
//
// This is the artifact a toolchain would flash to the accelerator: packed
// 4-bit weights, 8-bit biases, layer geometry, and radix indices. Format
// (little-endian):
//   magic "MFHW" | u32 version | u32 name_len | name | i32 input_frac |
//   u64 layer_count | per layer: u8 tag | tag-specific payload
// Payload integers are u64 (dims) / i32 (fracs); weight/bias blobs are
// length-prefixed byte streams.
#pragma once

#include <string>

#include "hw/qnet.hpp"

namespace mfdfp::hw {

/// Serializes to a byte string (exact round-trip with qnet_from_bytes).
[[nodiscard]] std::string qnet_to_bytes(const QNetDesc& desc);

/// Parses a byte string; throws std::runtime_error on malformed input and
/// std::out_of_range on a radix check_radices rejects.
[[nodiscard]] QNetDesc qnet_from_bytes(const std::string& bytes);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_qnet(const QNetDesc& desc, const std::string& path);
[[nodiscard]] QNetDesc load_qnet(const std::string& path);

}  // namespace mfdfp::hw
