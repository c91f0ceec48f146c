// Thread-safety annotations and the engine's only sanctioned lock types.
//
// Every mutex in the engine is a stems::Mutex, every scoped acquisition a
// stems::MutexLock, every condition wait a stems::CondVar — the repo-invariant
// linter (scripts/check_invariants.py, rule `naked-mutex`) rejects raw
// std::mutex / std::lock_guard anywhere else. The wrappers carry Clang
// Thread Safety Analysis capability attributes, so under clang with
// -Wthread-safety (added automatically by the build; CI runs it with
// -Werror) an access to a STEMS_GUARDED_BY field without its lock, or a
// call to a STEMS_REQUIRES function without the capability, is a *compile
// error*, not a code-review hope. On non-clang compilers every annotation
// macro expands to nothing and the wrappers are zero-cost veneers over the
// standard types.
//
// This is how the project's two hardest prose invariants became
// machine-checked (docs/static_analysis.md):
//   * the §3.1 visibility contract — ShardedStem build-timestamp issuance
//     must happen inside the shard critical section that guards the
//     shard's StemStorage (sharded_stem.h);
//   * engine-thread ownership — only the server's engine thread touches
//     the Engine (server.h; the linter's `engine-thread` rule covers the
//     cross-file half).
//
// Annotation conventions:
//   * every field a mutex protects is STEMS_GUARDED_BY(that mutex);
//   * every helper that expects the caller to hold a lock says so with
//     STEMS_REQUIRES(mu) instead of a "caller holds mu" comment;
//   * scoped lock types are STEMS_SCOPED_CAPABILITY with ACQUIRE/RELEASE
//     on the constructor/destructor (the absl::MutexLock idiom);
//   * fields synchronized by something other than a mutex (atomics,
//     thread ownership, happens-before via thread start/join) carry a
//     `// relaxed:` / `// sync:` comment the linter recognizes
//     (rule `atomic-doc`).
//
// Schedule-exploration seam (src/check/, docs/static_analysis.md "Dynamic
// exploration"): every wrapper below consults a thread-local scheduler hook
// before/after the underlying operation. The hook pointer is null outside
// the model-checking harness, so production code pays one thread-local load
// and a never-taken branch per sync op (bench-smoke holds the overhead
// gates); under the harness, every lock, unlock, cv wait/notify and
// stems::Atomic access becomes a controlled yield point.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

// Attribute spelling: clang's capability analysis. GCC accepts none of
// these, so they compile away entirely (the linter still enforces the
// conventions textually there).
#if defined(__clang__)
#define STEMS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define STEMS_THREAD_ANNOTATION_(x)
#endif

/// Declares a class to be a lockable capability ("mutex" in diagnostics).
#define STEMS_CAPABILITY(x) STEMS_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define STEMS_SCOPED_CAPABILITY STEMS_THREAD_ANNOTATION_(scoped_lockable)

/// Field annotation: reads and writes require holding `x`.
#define STEMS_GUARDED_BY(x) STEMS_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer-field annotation: the pointed-to data requires holding `x`.
#define STEMS_PT_GUARDED_BY(x) STEMS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function precondition: the caller must hold the listed capabilities.
/// Replaces "caller holds mu_" comments with a compiler-checked contract.
#define STEMS_REQUIRES(...) \
  STEMS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function precondition: the caller must NOT hold the listed capabilities
/// (documents lock-ordering / self-deadlock hazards).
#define STEMS_EXCLUDES(...) STEMS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The function acquires the capability and holds it on return.
#define STEMS_ACQUIRE(...) \
  STEMS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the capability (held on entry).
#define STEMS_RELEASE(...) \
  STEMS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function attempts the acquisition; the first argument is the return
/// value that means success.
#define STEMS_TRY_ACQUIRE(...) \
  STEMS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define STEMS_RETURN_CAPABILITY(x) STEMS_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function body is exempt from analysis. Every use must
/// say why in an adjacent comment.
#define STEMS_NO_THREAD_SAFETY_ANALYSIS \
  STEMS_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Runtime assertion that the capability is held (for call graphs the
/// static analysis cannot follow, e.g. callbacks).
#define STEMS_ASSERT_CAPABILITY(x) \
  STEMS_THREAD_ANNOTATION_(assert_capability(x))

namespace stems {

namespace sched {

/// Interface the schedule-exploration scheduler (src/check/scheduler.h)
/// implements; the sync wrappers below call into it at every
/// synchronization point of the thread it is installed on.
///
/// Contract between the wrappers and the hook:
///   * MutexLockPoint fires *before* the real acquisition and blocks (in
///     the scheduler) until the modeled mutex is free and this thread is
///     scheduled — the real lock that follows is therefore uncontended.
///   * MutexUnlockPoint fires *after* the real release (yield point).
///   * CondWaitPoint fires with the real mutex already released; it blocks
///     until the thread is woken (notify / injected spurious wakeup /
///     virtual timeout) *and* has reacquired the modeled mutex. Returns
///     true when the wake was a timeout (timed waits only).
///   * TryLockPoint is a yield point that resolves the attempt against the
///     model: true = acquired (the real try_lock that follows succeeds).
///   * NotifyPoint / AtomicPoint are plain yield points.
class Hook {
 public:
  virtual ~Hook() = default;
  virtual void MutexLockPoint(void* mu) = 0;
  virtual void MutexUnlockPoint(void* mu) = 0;
  virtual bool TryLockPoint(void* mu) = 0;
  virtual bool CondWaitPoint(void* cv, void* mu, bool timed) = 0;
  virtual void NotifyPoint(void* cv, bool notify_all) = 0;
  virtual void AtomicPoint(const void* addr) = 0;
};

/// The per-thread hook. Null everywhere except on threads spawned by a
/// check::Scheduler; the wrappers' fast path is one thread-local load plus
/// a never-taken branch.
inline thread_local Hook* t_hook = nullptr;

inline Hook* ThreadHook() { return t_hook; }
inline void SetThreadHook(Hook* hook) { t_hook = hook; }

}  // namespace sched

class CondVar;

/// The engine's mutex: std::mutex with a capability attribute. Prefer
/// MutexLock for scoped sections; Lock/Unlock exist for the rare
/// non-scoped protocol (and for scoped wrappers like ContentionLock).
class STEMS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() STEMS_ACQUIRE() {
    // Hooked: the scheduler blocks here until the modeled mutex is free and
    // this thread is picked, so the real lock below never contends.
    if (sched::Hook* h = sched::ThreadHook()) h->MutexLockPoint(this);
    mu_.lock();
  }
  void Unlock() STEMS_RELEASE() {
    mu_.unlock();
    if (sched::Hook* h = sched::ThreadHook()) h->MutexUnlockPoint(this);
  }
  bool TryLock() STEMS_TRY_ACQUIRE(true) {
    if (sched::Hook* h = sched::ThreadHook()) {
      if (!h->TryLockPoint(this)) return false;
      // Modeled acquisition succeeded; the real try_lock cannot fail (the
      // scheduler serializes, and the model says the mutex is free).
      return mu_.try_lock();
    }
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped acquisition (the std::lock_guard of this codebase). Takes a
/// pointer so call sites read `MutexLock lock(&mu_);` — an acquisition is
/// visibly an action on the mutex, not a copy of it.
class STEMS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) STEMS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() STEMS_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to stems::Mutex. Waits take the Mutex (with a
/// REQUIRES contract) rather than a std::unique_lock, so guarded state
/// stays inside the annotated world; predicates are written as explicit
/// `while` loops in the caller — where the capability is held and the
/// analysis can see the guarded reads — never as lambdas (a lambda body is
/// a separate function the analysis treats as lock-free).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) STEMS_REQUIRES(mu) {
    if (sched::Hook* h = sched::ThreadHook()) {
      // Hooked wait: really release the mutex (other scheduled threads must
      // be able to really lock it), let the scheduler model the wait —
      // notify, injected spurious wakeup, modeled reacquisition — then
      // really relock (uncontended; the model granted it).
      mu.mu_.unlock();
      try {
        (void)h->CondWaitPoint(this, &mu, /*timed=*/false);
      } catch (...) {
        // Schedule abort unwinds through here; the caller's scoped lock
        // will release the mutex, so it must really be held again.
        mu.mu_.lock();
        throw;
      }
      mu.mu_.lock();
      return;
    }
    // Adopt the already-held native mutex for the duration of the wait;
    // release() hands it back without unlocking (the caller still holds it).
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      STEMS_REQUIRES(mu) {
    if (sched::Hook* h = sched::ThreadHook()) {
      // Hooked timed wait: the deadline is virtual — the scheduler decides
      // when (whether) the timeout fires, so explored schedules never
      // depend on wall time.
      mu.mu_.unlock();
      bool timed_out = false;
      try {
        timed_out = h->CondWaitPoint(this, &mu, /*timed=*/true);
      } catch (...) {
        mu.mu_.lock();  // see Wait(): unwinding must leave the mutex held
        throw;
      }
      mu.mu_.lock();
      return timed_out ? std::cv_status::timeout : std::cv_status::no_timeout;
    }
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      STEMS_REQUIRES(mu) {
    if (sched::Hook* h = sched::ThreadHook()) {
      mu.mu_.unlock();
      bool timed_out = false;
      try {
        timed_out = h->CondWaitPoint(this, &mu, /*timed=*/true);
      } catch (...) {
        mu.mu_.lock();  // see Wait(): unwinding must leave the mutex held
        throw;
      }
      mu.mu_.lock();
      return timed_out ? std::cv_status::timeout : std::cv_status::no_timeout;
    }
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status;
  }

  void NotifyOne() {
    if (sched::Hook* h = sched::ThreadHook()) h->NotifyPoint(this, false);
    cv_.notify_one();
  }
  void NotifyAll() {
    if (sched::Hook* h = sched::ThreadHook()) h->NotifyPoint(this, true);
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

/// Schedulable atomic: std::atomic with a yield point before every access.
/// Adopt it for every atomic that *synchronizes* (`sync:`-annotated sites —
/// stop flags, admission counters, CAS protocols); pure statistics may stay
/// std::atomic with an `// invariant: allow(schedulable-atomic)` note
/// (rule `schedulable-atomic` in scripts/check_invariants.py). Under the
/// model-checking harness every load/store/RMW becomes a scheduling
/// decision; in production it is the same one-branch fast path as Mutex.
///
/// Deliberately narrower than std::atomic: only the operations the engine
/// actually uses, all seq_cst (the memory-order parameter the engine never
/// varied is not worth widening the exploration surface for).
template <typename T>
class Atomic {
 public:
  constexpr Atomic() noexcept : v_(T{}) {}
  constexpr Atomic(T value) noexcept : v_(value) {}  // NOLINT(google-explicit-constructor)
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load() const noexcept {
    Point();
    return v_.load();
  }
  void store(T value) noexcept {
    Point();
    v_.store(value);
  }
  T exchange(T value) noexcept {
    Point();
    return v_.exchange(value);
  }
  bool compare_exchange_strong(T& expected, T desired) noexcept {
    Point();
    return v_.compare_exchange_strong(expected, desired);
  }
  bool compare_exchange_weak(T& expected, T desired) noexcept {
    Point();
    // Under the hook, weak CAS is strengthened: a spurious CAS failure is
    // a scheduling event the model wants to control, not inherit from the
    // hardware mid-schedule.
    if (sched::ThreadHook() != nullptr) {
      return v_.compare_exchange_strong(expected, desired);
    }
    return v_.compare_exchange_weak(expected, desired);
  }
  T fetch_add(T delta) noexcept {
    Point();
    return v_.fetch_add(delta);
  }
  T fetch_sub(T delta) noexcept {
    Point();
    return v_.fetch_sub(delta);
  }

  operator T() const noexcept { return load(); }  // NOLINT(google-explicit-constructor)
  T operator=(T value) noexcept {
    store(value);
    return value;
  }
  T operator++() noexcept { return fetch_add(T{1}) + T{1}; }
  T operator--() noexcept { return fetch_sub(T{1}) - T{1}; }

 private:
  void Point() const noexcept {
    if (sched::Hook* h = sched::ThreadHook()) h->AtomicPoint(&v_);
  }

  /// sync: the wrapped cell; every access above is seq_cst (class doc).
  std::atomic<T> v_;
};

}  // namespace stems
