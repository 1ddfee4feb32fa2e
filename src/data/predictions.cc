#include "data/predictions.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "data/dataset.h"

namespace tdac {

void Predictions::Add(uint64_t key, ValueId value_id, double confidence) {
  TDAC_CHECK(keys.empty() || keys.back() < key)
      << "Predictions::Add: keys must ascend";
  keys.push_back(key);
  value_ids.push_back(value_id);
  confidences.push_back(confidence);
}

size_t Predictions::Find(ObjectId object, AttributeId attribute) const {
  const uint64_t key = ObjectAttrKey(object, attribute);
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  return it != keys.end() && *it == key ? static_cast<size_t>(it - keys.begin())
                                        : size();
}

Value Predictions::ValueAt(size_t index, const DatasetLike& data) const {
  return data.storage().value_dict().ValueAt(value_ids[index]);
}

std::optional<Value> Predictions::Get(ObjectId object, AttributeId attribute,
                                      const DatasetLike& data) const {
  const size_t index = Find(object, attribute);
  if (index == size()) return std::nullopt;
  return ValueAt(index, data);
}

Predictions MergePredictions(std::span<const Predictions* const> parts) {
  size_t total = 0;
  for (const Predictions* part : parts) total += part->size();
  Predictions out;
  out.keys.reserve(total);
  out.value_ids.reserve(total);
  out.confidences.reserve(total);
  // A min-heap of each part's next (key, part): equal keys pop in part
  // order, so the last part's entry is the one left standing.
  std::vector<std::pair<uint64_t, size_t>> heap;
  std::vector<size_t> next(parts.size(), 0);
  for (size_t p = 0; p < parts.size(); ++p) {
    if (!parts[p]->empty()) heap.emplace_back(parts[p]->keys[0], p);
  }
  const std::greater<> after;
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const auto [key, p] = heap.back();
    const Predictions& part = *parts[p];
    const size_t i = next[p]++;
    if (!out.keys.empty() && out.keys.back() == key) {
      out.value_ids.back() = part.value_ids[i];
      out.confidences.back() = part.confidences[i];
    } else {
      out.keys.push_back(key);
      out.value_ids.push_back(part.value_ids[i]);
      out.confidences.push_back(part.confidences[i]);
    }
    if (next[p] < part.size()) {
      heap.back() = {part.keys[next[p]], p};
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

}  // namespace tdac
