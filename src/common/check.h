// Lightweight CHECK macros for invariant enforcement.
//
// The project does not use C++ exceptions (README "Error handling");
// programmer errors and broken invariants abort the process with a
// diagnostic, while recoverable errors flow through Status/StatusOr (see
// common/status.h).

#ifndef DSGM_COMMON_CHECK_H_
#define DSGM_COMMON_CHECK_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace dsgm {
namespace internal {

/// Collects a diagnostic message via operator<< and aborts when destroyed.
/// Used only by the DSGM_CHECK family of macros below.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition) {
    stream_ << "CHECK failed at " << file << ":" << line << ": " << condition;
  }

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  [[noreturn]] ~CheckFailure() {
    std::cerr << stream_.str() << std::endl;
    std::abort();
  }

  template <typename T>
  CheckFailure& operator<<(const T& value) {
    stream_ << " " << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace dsgm

/// Aborts with a diagnostic unless `condition` holds. Extra context may be
/// streamed: DSGM_CHECK(x > 0) << "x was" << x;
#define DSGM_CHECK(condition)                                        \
  if (condition) {                                                   \
  } else                                                             \
    ::dsgm::internal::CheckFailure(__FILE__, __LINE__, #condition)

#define DSGM_CHECK_EQ(a, b) DSGM_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ")"
#define DSGM_CHECK_NE(a, b) DSGM_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ")"
#define DSGM_CHECK_LT(a, b) DSGM_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ")"
#define DSGM_CHECK_LE(a, b) DSGM_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ")"
#define DSGM_CHECK_GT(a, b) DSGM_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ")"
#define DSGM_CHECK_GE(a, b) DSGM_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ")"

/// Debug-only checks: compiled out in NDEBUG builds on hot paths.
#ifdef NDEBUG
#define DSGM_DCHECK(condition) \
  if (true) {                  \
  } else                       \
    ::dsgm::internal::CheckFailure(__FILE__, __LINE__, #condition)
#else
#define DSGM_DCHECK(condition) DSGM_CHECK(condition)
#endif

#endif  // DSGM_COMMON_CHECK_H_
