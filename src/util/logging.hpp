// Minimal leveled logging used by training loops and benches.
//
// Deliberately tiny: printf-style would pull in format-string risk, iostreams
// everywhere would be noisy. Callers build the message with std::string /
// std::to_string or std::ostringstream and hand it over.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace mfdfp::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global threshold; messages below it are dropped. Defaults to kInfo.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emits `message` to stderr with a level tag if `level` >= threshold.
void log(LogLevel level, std::string_view message);

inline void log_debug(std::string_view m) { log(LogLevel::kDebug, m); }
inline void log_warn(std::string_view m) { log(LogLevel::kWarn, m); }
inline void log_error(std::string_view m) { log(LogLevel::kError, m); }

/// Stream-style helper: logf(LogLevel::kInfo) << "epoch " << e;
/// The message is emitted when the temporary is destroyed.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() { log(level_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

inline LogStream logf(LogLevel level = LogLevel::kInfo) {
  return LogStream{level};
}

}  // namespace mfdfp::util
