#include "util/timer_slack.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace mfdfp::util {

void use_fine_timer_slack() noexcept {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace mfdfp::util
