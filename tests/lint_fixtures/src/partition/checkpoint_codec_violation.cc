// Fixture: a hand-rolled checkpoint payload outside src/common/checkpoint —
// both HexDouble and ParseHexDouble are flagged.
#include <sstream>
#include <string>

#include "common/checkpoint.h"

namespace tdac {

std::string SerializeScore(double score) {
  std::ostringstream out;
  out << HexDouble(score) << '\n';
  return out.str();
}

bool ParseScore(const std::string& hex, double* score) {
  Result<double> parsed = ParseHexDouble(hex);
  if (!parsed.ok()) return false;
  *score = parsed.value();
  return true;
}

}  // namespace tdac
