// Fixture: src/common/checkpoint.* is the codec's home — HexDouble is
// exempt here.
#include <string>

namespace tdac {

std::string HexDouble(double value);

std::string FieldOf(double value) { return HexDouble(value); }

}  // namespace tdac
