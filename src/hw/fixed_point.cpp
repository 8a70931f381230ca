#include "hw/fixed_point.hpp"

namespace mfdfp::hw {

std::int64_t shift_left_checked(std::int64_t value, int shift) {
  if (shift < 0) {
    throw std::invalid_argument("shift_left_checked: negative shift");
  }
  // Zero stays zero at any shift; shifting it by 64 or more would be UB.
  if (value == 0) return 0;
  if (shift >= 62) {
    throw std::overflow_error("shift_left_checked: carrier overflow");
  }
  const std::int64_t shifted = value << shift;
  if (shift > 0 && (shifted >> shift) != value) {
    throw std::overflow_error("shift_left_checked: carrier overflow");
  }
  return shifted;
}

}  // namespace mfdfp::hw
