// Fixture: literal scratch paths under TempDir() in a test. Both spellings
// are flagged; the reasoned waiver and the word in this comment are not.

#include <string>

std::string FixedPath() {
  return testing::TempDir() + "/fixed.csv";  // violation: shared by twins
}

std::string QualifiedPath() {
  const std::string dir = ::testing::TempDir();  // violation
  return dir + "checkpoints";
}

std::string TemplatePath() {
  // lint: scratch-path-ok (mkdtemp template, unique by construction)
  return ::testing::TempDir() + "fixture_XXXXXX";
}
