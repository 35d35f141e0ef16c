// Clang Thread Safety Analysis surface for mlvl, plus the annotated
// synchronization primitives every lock-holding type in the tree uses.
//
// The macros expand to Clang's `capability` attribute family when the
// compiler supports it (`-Wthread-safety -Wthread-safety-beta`, promoted to
// errors by the MLVL_THREAD_SAFETY cmake option, enforced by the CI
// thread-safety job) and to nothing elsewhere, so GCC/MSVC builds are
// byte-identical to an unannotated tree. The analysis is purely static and
// purely compile-time: a release binary with annotations is the same binary
// without them.
//
// Discipline:
//  * every mutex-protected member is declared `MLVL_GUARDED_BY(mu_)`;
//  * locking happens through `MutexLock` (never a bare lock()/unlock() pair),
//    so scopes are visible to the analysis and exception-safe;
//  * a private helper that assumes the lock is held says so with
//    `MLVL_REQUIRES(mu_)` instead of re-locking;
//  * data handed to another thread by contract (armed-before-share fields,
//    results published through a std::promise) is documented at the member,
//    not annotated — the analysis has no happens-before vocabulary, that is
//    what the TSan CI lane is for (MLVL_TSAN).
//
// The wrappers are zero-cost forwarding shims over std::mutex /
// std::condition_variable: everything is inline, no virtual, no state beyond
// the wrapped primitive. `MutexLock` is the scoped lock (a lock_guard the
// analysis can see); `CondVar` carries the REQUIRES contract on wait().
#pragma once

#include <condition_variable>
#include <mutex>

// Attribute detection: Clang defines the `capability` attributes; everything
// else compiles the annotations away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MLVL_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MLVL_THREAD_ANNOTATION
#define MLVL_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Declares a type whose instances are synchronization capabilities.
#define MLVL_CAPABILITY(x) MLVL_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires a capability for its lifetime.
#define MLVL_SCOPED_CAPABILITY MLVL_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding `x`.
#define MLVL_GUARDED_BY(x) MLVL_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is protected by `x`.
#define MLVL_PT_GUARDED_BY(x) MLVL_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function that acquires the listed capabilities and returns holding them.
#define MLVL_ACQUIRE(...) \
  MLVL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the listed capabilities.
#define MLVL_RELEASE(...) \
  MLVL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that may acquire the capability; `b` is the success return value.
#define MLVL_TRY_ACQUIRE(...) \
  MLVL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that must be called with the listed capabilities held.
#define MLVL_REQUIRES(...) \
  MLVL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that must be called *without* the listed capabilities (guards
/// against self-deadlock on a non-recursive mutex).
#define MLVL_EXCLUDES(...) MLVL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Documented lock-ordering edges (deadlock analysis under -beta).
#define MLVL_ACQUIRED_BEFORE(...) \
  MLVL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MLVL_ACQUIRED_AFTER(...) \
  MLVL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function returning a reference to the capability guarding its result.
#define MLVL_RETURN_CAPABILITY(x) MLVL_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use carries a comment saying why the analysis is
/// wrong there (there are currently no uses in the tree — keep it that way).
#define MLVL_NO_THREAD_SAFETY_ANALYSIS \
  MLVL_THREAD_ANNOTATION(no_thread_safety_analysis)
/// Runtime assertion that the calling thread holds the capability.
#define MLVL_ASSERT_CAPABILITY(x) MLVL_THREAD_ANNOTATION(assert_capability(x))

namespace mlvl {

class CondVar;

/// std::mutex with the `capability` attribute, so members can be declared
/// MLVL_GUARDED_BY it and the analysis can verify the locking discipline.
class MLVL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MLVL_ACQUIRE() { mu_.lock(); }
  void unlock() MLVL_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() MLVL_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;  ///< wait() needs the raw std::mutex
  std::mutex mu_;
};

/// Scoped lock over `Mutex` — the only way code in this tree takes a lock,
/// so every critical section is a visible lexical scope (to readers and to
/// the analysis) and unlock is exception-safe.
class MLVL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) MLVL_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() MLVL_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable bound to `Mutex`. wait() carries the REQUIRES
/// contract: the caller must hold the mutex, and holds it again when the
/// call returns (the wrapper re-adopts it, so the analysis sees an unbroken
/// critical section — exactly the standard CV semantic).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) MLVL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's MutexLock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mlvl
