#include "core/cancel.hpp"

namespace mlvl {
namespace detail {

constinit thread_local const CancelToken* tl_cancel = nullptr;
namespace {
/// Per-thread checkpoint counter; the clock is polled when it wraps a stride.
thread_local std::uint32_t tl_polls = 0;
}  // namespace

void poll_cancel_slow(const char* phase) {
  const CancelToken* token = tl_cancel;
  if (++tl_polls % kPollStride == 0) {
    if (token->tripped()) throw CancelledError(phase, token->reason());
  } else if (token->tripped_flag_only()) {
    throw CancelledError(phase, token->reason());
  }
}

void poll_cancel_now(const char* phase) {
  const CancelToken* token = tl_cancel;
  if (token->tripped()) throw CancelledError(phase, token->reason());
}

}  // namespace detail
}  // namespace mlvl
