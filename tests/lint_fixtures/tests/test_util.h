// Fixture: tests/test_util.h is where testutil::ScratchDir lives, so its
// own TempDir() call is exempt from the scratch-path rule.
#ifndef FIXTURE_TEST_UTIL_H_
#define FIXTURE_TEST_UTIL_H_

#include <string>

namespace testing {
inline std::string TempDir() { return "/tmp/"; }
}  // namespace testing

inline std::string ScratchRoot() { return testing::TempDir(); }

#endif  // FIXTURE_TEST_UTIL_H_
