// Fixture: the claim-value rule covers every .cc under src/, not only the
// kernel directories — an evaluation reader that materializes a Claim per
// row is flagged here too, and the columnar read below it is not.

#include <cstddef>
#include <cstdint>
#include <vector>

struct Value {
  int kind = 0;
  bool operator==(const Value& other) const { return kind == other.kind; }
};

struct Claim {
  int32_t source = 0;
  Value value;
};

struct Store {
  Claim claim(size_t i) const { return Claim{sources_[i], Value{}}; }
  const std::vector<int32_t>& claim_value_ids() const { return values_; }
  size_t num_claims() const { return sources_.size(); }
  std::vector<int32_t> sources_;
  std::vector<int32_t> values_;
};

size_t CountCorrectViaRows(const Store& store, const Value& truth) {
  size_t correct = 0;
  for (size_t i = 0; i < store.num_claims(); ++i) {
    if (store.claim(i).value == truth) ++correct;  // violation
  }
  return correct;
}

size_t CountCorrectViaColumns(const Store& store, int32_t truth_id) {
  size_t correct = 0;
  // Clean: compares dictionary ids from the value column.
  for (int32_t id : store.claim_value_ids()) correct += id == truth_id;
  return correct;
}
