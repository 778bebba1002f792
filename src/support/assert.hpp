// Lightweight contract checking for bnloc.
//
// BNLOC_ASSERT is active in all build types: localization experiments are
// cheap relative to the cost of silently propagating a bad belief, and the
// checks sit outside inner loops. Inner-loop-grade checks use
// BNLOC_DEBUG_ASSERT, which compiles away in NDEBUG builds.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace bnloc::detail {

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "bnloc assertion failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg ? msg : "");
  std::abort();
}

}  // namespace bnloc::detail

#define BNLOC_ASSERT(expr, msg)                                      \
  do {                                                               \
    if (!(expr)) [[unlikely]]                                        \
      ::bnloc::detail::assert_fail(#expr, __FILE__, __LINE__, msg);  \
  } while (false)

// The one assert a constructor holds on its config: aborts with the reason
// `config.validate()` returns unless it is empty. Callers that must not
// abort (the serve layer) call validate() themselves first.
#define BNLOC_ASSERT_VALID(config)                                       \
  do {                                                                   \
    const auto bnloc_why_ = (config).validate();                         \
    if (!bnloc_why_.empty()) [[unlikely]]                                \
      ::bnloc::detail::assert_fail(#config ".validate()", __FILE__,      \
                                   __LINE__, bnloc_why_.c_str());        \
  } while (false)

#ifdef NDEBUG
#define BNLOC_DEBUG_ASSERT(expr, msg) ((void)0)
#else
#define BNLOC_DEBUG_ASSERT(expr, msg) BNLOC_ASSERT(expr, msg)
#endif
