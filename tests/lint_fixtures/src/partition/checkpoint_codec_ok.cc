// Fixture: payloads through the codec, and a reasoned waiver — clean under
// checkpoint-codec.
#include <string>

#include "common/checkpoint.h"

namespace tdac {

std::string SerializeScore(double score) {
  PayloadWriter out;
  (out << score).End();
  return out.Take();
}

// lint: checkpoint-codec-ok (fixture: a golden pins raw IEEE-754 bits)
std::string ScoreBits(double score) { return HexDouble(score); }

}  // namespace tdac
