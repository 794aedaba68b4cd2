// Clang thread-safety annotation macros — compile-time lock-protocol
// enforcement for the serving stack.
//
// The concurrency obligations this repo carries (queue mutex + CV
// protocols, the worker pool's submit/job split, AsyncAmIndex's
// shared/exclusive validation lock, the AmIndex mutation guard) were
// previously enforced only at runtime: the TSan CI leg,
// typed errors, and tests. These macros make the protocols part of the
// type system — a clang build with `-Wthread-safety -Werror` (the CI
// `static-analysis` job, or `-DFEREX_THREAD_SAFETY=ON` locally) rejects
// any access to a `GUARDED_BY` field without its capability, any call
// to a `REQUIRES` function without the lock, and any unbalanced
// ACQUIRE/RELEASE path.
//
// Off clang (or when the attribute is unsupported) every macro expands
// to nothing, so GCC/MSVC builds are byte-identical with or without
// annotations. The capability vocabulary follows the standard set from
// the Clang thread-safety documentation; see src/util/mutex.hpp for the
// annotated std::mutex / std::shared_mutex wrappers the analysis can
// see through (libstdc++'s own lock types carry no annotations).
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FEREX_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef FEREX_THREAD_ANNOTATION
#define FEREX_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex", "shared_mutex", "role").
#define CAPABILITY(x) FEREX_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define SCOPED_CAPABILITY FEREX_THREAD_ANNOTATION(scoped_lockable)

/// Data members: reads/writes require holding the given capability.
#define GUARDED_BY(x) FEREX_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members: the pointed-to data requires the capability.
#define PT_GUARDED_BY(x) FEREX_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-order declarations (deadlock detection).
#define ACQUIRED_BEFORE(...) \
  FEREX_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  FEREX_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Functions: caller must hold the capability (exclusively / shared).
#define REQUIRES(...) \
  FEREX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  FEREX_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Functions: acquire the capability (exclusively / shared) on entry.
#define ACQUIRE(...) \
  FEREX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  FEREX_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Functions: release the capability. RELEASE_GENERIC releases either
/// an exclusive or a shared hold (scoped reader locks' destructors).
#define RELEASE(...) \
  FEREX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  FEREX_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  FEREX_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Functions: acquire only when returning the given value.
#define TRY_ACQUIRE(...) \
  FEREX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  FEREX_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// Functions: caller must NOT hold the capability (non-reentrancy).
#define EXCLUDES(...) FEREX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Functions: a runtime check after which the analysis may assume the
/// capability is held (e.g. a guard that throws instead of blocking).
#define ASSERT_CAPABILITY(x) FEREX_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  FEREX_THREAD_ANNOTATION(assert_shared_capability(x))

/// Functions returning a reference to a capability.
#define RETURN_CAPABILITY(x) FEREX_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol cannot be expressed.
#define NO_THREAD_SAFETY_ANALYSIS \
  FEREX_THREAD_ANNOTATION(no_thread_safety_analysis)
