// Fine timer slack for threads that wait to a deadline.
//
// Linux lets a timed sleep or condition-variable wait end up to the
// thread's timer slack after its deadline (50 us by default) so that
// wake-ups can be coalesced. The serving layer's deadlines are tighter
// than that: an engine worker closes a lone request's batch at
// `enqueue_us + max_wait_us`, and a paced SharedDevice dispatcher holds
// each chunk until its modeled completion. Each such thread calls
// use_fine_timer_slack() once at start-up, so its waits end within the
// kernel's wake-up precision instead of 50 us late. The setting is
// per-thread and changes no wait's deadline, only how late it may fire.
#pragma once

namespace mfdfp::util {

/// Sets the calling thread's timer slack to 1 ns (Linux
/// PR_SET_TIMERSLACK). A no-op on other platforms or if the call fails.
void use_fine_timer_slack() noexcept;

}  // namespace mfdfp::util
