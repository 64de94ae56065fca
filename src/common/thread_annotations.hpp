// Compile-time concurrency contract: Clang thread-safety capability macros
// and an annotated mutex, wired to `-Wthread-safety` (enabled automatically
// for clang builds; `-DHETSGD_WERROR=ON` promotes violations to errors).
//
// The framework's whole point is *deliberately* racy Hogwild updates next
// to coordination state that is locked or confined to one thread, so the
// line between "algorithm" and "bug" must live in the source: every
// mutex-protected field is declared `HETSGD_GUARDED_BY(mu_)`, every helper
// that assumes the lock is `HETSGD_REQUIRES(mu_)`, and the sanctioned
// race sites carry a `// hetsgd-racy:` waiver (cross-checked
// against scripts/tsan.supp by tools/lint/hetsgd_lint.py). Unannotated
// sharing is then a compile error under clang instead of a judgment call
// in code review. See DESIGN.md §10 for the capability map.
//
// Under gcc (which has no thread-safety analysis) every macro expands to
// nothing and AnnotatedMutex degrades to a plain std::mutex wrapper.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define HETSGD_TS_ATTR(x) __attribute__((x))
#else
#define HETSGD_TS_ATTR(x)  // gcc / MSVC: no thread-safety analysis
#endif

// Declares a class to be a capability (lockable) type.
#define HETSGD_CAPABILITY(x) HETSGD_TS_ATTR(capability(x))

// Declares an RAII type that acquires a capability in its constructor and
// releases it in its destructor.
#define HETSGD_SCOPED_CAPABILITY HETSGD_TS_ATTR(scoped_lockable)

// Data members readable/writable only while the capability is held.
#define HETSGD_GUARDED_BY(x) HETSGD_TS_ATTR(guarded_by(x))

// Functions callable only while holding the capability (and that do not
// release it).
#define HETSGD_REQUIRES(...) \
  HETSGD_TS_ATTR(requires_capability(__VA_ARGS__))

// Functions that acquire / release a capability.
#define HETSGD_ACQUIRE(...) \
  HETSGD_TS_ATTR(acquire_capability(__VA_ARGS__))
#define HETSGD_RELEASE(...) \
  HETSGD_TS_ATTR(release_capability(__VA_ARGS__))
#define HETSGD_TRY_ACQUIRE(...) \
  HETSGD_TS_ATTR(try_acquire_capability(__VA_ARGS__))

// Functions that must NOT be called while holding the capability (they
// acquire it themselves; calling with it held would self-deadlock on the
// non-recursive std::mutex underneath).
#define HETSGD_EXCLUDES(...) HETSGD_TS_ATTR(locks_excluded(__VA_ARGS__))

namespace hetsgd {

// std::mutex wearing capability annotations. Always lock through MutexLock
// (or lock()/unlock() in the rare manual case) so the analysis sees every
// acquisition; std::lock_guard<AnnotatedMutex> compiles but is invisible
// to the analysis under libstdc++ and is rejected by hetsgd-lint.
class HETSGD_CAPABILITY("mutex") AnnotatedMutex {
 public:
  AnnotatedMutex() = default;
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() HETSGD_ACQUIRE() { mu_.lock(); }
  void unlock() HETSGD_RELEASE() { mu_.unlock(); }
  bool try_lock() HETSGD_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// RAII acquisition of an AnnotatedMutex, visible to the analysis.
// Condition waits use std::condition_variable_any directly on the
// AnnotatedMutex (it satisfies BasicLockable) inside a MutexLock scope:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(mu_);
class HETSGD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(AnnotatedMutex& mu) HETSGD_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~MutexLock() HETSGD_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  AnnotatedMutex& mu_;
};

}  // namespace hetsgd
