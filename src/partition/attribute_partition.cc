#include "partition/attribute_partition.h"

#include <algorithm>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"

namespace tdac {

Result<AttributePartition> AttributePartition::FromGroups(
    std::vector<std::vector<AttributeId>> groups) {
  std::unordered_set<AttributeId> seen;
  for (const auto& g : groups) {
    if (g.empty()) {
      return Status::InvalidArgument("partition group must not be empty");
    }
    for (AttributeId a : g) {
      if (!seen.insert(a).second) {
        return Status::InvalidArgument(
            "attribute " + std::to_string(a) + " appears in multiple groups");
      }
    }
  }
  AttributePartition p;
  p.groups_ = std::move(groups);
  p.Canonicalize();
  return p;
}

Result<AttributePartition> AttributePartition::FromAssignment(
    const std::vector<AttributeId>& attributes,
    const std::vector<int>& assignment) {
  if (attributes.size() != assignment.size()) {
    return Status::InvalidArgument(
        "FromAssignment: attributes/assignment size mismatch");
  }
  std::unordered_map<int, std::vector<AttributeId>> by_label;
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (assignment[i] < 0) {
      return Status::InvalidArgument("FromAssignment: negative label");
    }
    by_label[assignment[i]].push_back(attributes[i]);
  }
  std::vector<std::vector<AttributeId>> groups;
  groups.reserve(by_label.size());
  // Group extraction order is irrelevant: FromGroups canonicalizes (sorts
  // within and across groups), and each group's content is order-fixed by
  // the assignment scan above.
  // lint: unordered-ok (FromGroups canonicalizes)
  for (auto& [label, group] : by_label) groups.push_back(std::move(group));
  return FromGroups(std::move(groups));
}

AttributePartition AttributePartition::Single(
    const std::vector<AttributeId>& attributes) {
  AttributePartition p;
  if (!attributes.empty()) {
    p.groups_.push_back(attributes);
    p.Canonicalize();
  }
  return p;
}

Result<AttributePartition> AttributePartition::Parse(const std::string& text) {
  std::string_view s = StripAsciiWhitespace(text);
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') {
    return Status::InvalidArgument("partition must be wrapped in [ ]: " + text);
  }
  s = s.substr(1, s.size() - 2);
  std::vector<std::vector<AttributeId>> groups;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ',' || s[i] == ' ')) ++i;
    if (i >= s.size()) break;
    if (s[i] != '(') {
      return Status::InvalidArgument("expected '(' in partition: " + text);
    }
    size_t close = s.find(')', i);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unbalanced '(' in partition: " + text);
    }
    std::vector<AttributeId> group;
    for (const std::string& tok : Split(s.substr(i + 1, close - i - 1), ',')) {
      std::string_view t = StripAsciiWhitespace(tok);
      if (t.empty()) continue;
      // Parsed whole: a number that does not fit an int is refused, not
      // wrapped into another attribute.
      int v = 0;
      if (!ParseNumber(t, &v)) {
        return Status::InvalidArgument("bad attribute number '" +
                                       std::string(t) + "' in " + text);
      }
      if (v < 1) {
        return Status::InvalidArgument("attribute numbers are 1-based");
      }
      group.push_back(static_cast<AttributeId>(v - 1));
    }
    if (group.empty()) {
      return Status::InvalidArgument("empty group in partition: " + text);
    }
    groups.push_back(std::move(group));
    i = close + 1;
  }
  return FromGroups(std::move(groups));
}

size_t AttributePartition::num_attributes() const {
  size_t n = 0;
  for (const auto& g : groups_) n += g.size();
  return n;
}

std::vector<AttributeId> AttributePartition::Attributes() const {
  std::vector<AttributeId> all;
  for (const auto& g : groups_) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  return all;
}

int AttributePartition::GroupOf(AttributeId attribute) const {
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (std::binary_search(groups_[i].begin(), groups_[i].end(), attribute)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string AttributePartition::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "(";
    for (size_t j = 0; j < groups_[i].size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(groups_[i][j] + 1);
    }
    out += ")";
  }
  out += "]";
  return out;
}

void AttributePartition::Canonicalize() {
  for (auto& g : groups_) std::sort(g.begin(), g.end());
  std::sort(groups_.begin(), groups_.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
}

std::ostream& operator<<(std::ostream& os, const AttributePartition& p) {
  return os << p.ToString();
}

}  // namespace tdac
