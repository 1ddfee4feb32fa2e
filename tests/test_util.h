#ifndef TDAC_TESTS_TEST_UTIL_H_
#define TDAC_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/ground_truth.h"

namespace tdac {
namespace testutil {

/// A claim spec for BuildDataset: names plus an int value.
struct ClaimSpec {
  std::string source;
  std::string object;
  std::string attribute;
  int64_t value;
};

/// Builds a dataset from specs; aborts the test on any failure.
inline Dataset BuildDataset(const std::vector<ClaimSpec>& specs) {
  DatasetBuilder b;
  for (const ClaimSpec& s : specs) {
    Status st = b.AddClaim(s.source, s.object, s.attribute, Value(s.value));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  auto result = b.Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.MoveValue();
}

/// A dataset where two reliable sources agree on the truth and one bad
/// source dissents, over `num_items` items. Truth for item i is value 100+i;
/// the bad source claims 200+i.
inline Dataset TwoGoodOneBad(int num_items, GroundTruth* truth) {
  std::vector<ClaimSpec> specs;
  for (int i = 0; i < num_items; ++i) {
    std::string attr = "a" + std::to_string(i);
    specs.push_back({"good1", "o", attr, 100 + i});
    specs.push_back({"good2", "o", attr, 100 + i});
    specs.push_back({"bad", "o", attr, 200 + i});
  }
  Dataset d = BuildDataset(specs);
  if (truth != nullptr) {
    for (int i = 0; i < num_items; ++i) {
      truth->Set(0, i, Value(int64_t{100 + i}));
    }
  }
  return d;
}

/// A fresh, empty directory under testing::TempDir() for the running test,
/// keyed on the test's name and this process's pid, so the same binary
/// registered twice (a `_threads8` twin) can run side by side under
/// `ctest -j` without sharing a file. The directory is removed on
/// destruction unless the test failed, which leaves it for inspection.
/// Construct it inside the test (a fixture member or a local).
class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." +
                       info->name() + "." + std::to_string(::getpid());
    // Parameterized suites and tests carry a '/' in their names.
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    if (::testing::Test::HasFailure()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// FNV-1a 64 of `bytes` as 16 hex digits: pins a large serialized output
/// in a golden file without storing it whole.
inline std::string Fnv1a64Hex(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// Byte-compares `actual` with the golden file at `path`. With
/// TDAC_UPDATE_GOLDEN=1 in the environment the file is rewritten instead
/// (and the test skipped), for an intended behaviour change.
inline void ExpectMatchesGolden(const std::string& path,
                                const std::string& actual) {
  const char* update = std::getenv("TDAC_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "differs from golden " << path;
}

}  // namespace testutil
}  // namespace tdac

#endif  // TDAC_TESTS_TEST_UTIL_H_
