#ifndef TDAC_TDAC_TRUTH_VECTORS_H_
#define TDAC_TDAC_TRUTH_VECTORS_H_

#include <cstdint>
#include <vector>

#include "clustering/distance.h"
#include "common/result.h"
#include "data/dataset_like.h"
#include "data/ground_truth.h"
#include "td/truth_discovery.h"

namespace tdac {

/// \brief The matrix of attribute truth vectors (paper Section 3.1).
///
/// Row r is the truth vector of attribute `attributes[r]`: one coordinate
/// per (object, source) pair in a fixed order (object-major), valued 1 when
/// the source's claim for that attribute of that object exists and matches
/// the reference truth, 0 otherwise (Eq. 1). `masks[r]` records which
/// coordinates correspond to an existing claim — the sparse-aware distance
/// extension uses it to distinguish "wrong" from "missing".
struct TruthVectorMatrix {
  std::vector<AttributeId> attributes;
  std::vector<FeatureVector> vectors;
  std::vector<std::vector<uint8_t>> masks;

  /// Dimension l of each vector: num_objects * num_sources.
  size_t dimension() const {
    return vectors.empty() ? 0 : vectors[0].size();
  }
};

/// \brief The axis a partition pass clusters: TD-AC groups attributes (the
/// paper's Algorithm 1), TD-OC groups objects (the conclusion's comparison
/// with object partitioning, reference [13]).
enum class PartitionAxis { kAttributes, kObjects };

/// Fills the truth vectors of `items`, ids on `axis`, row r for items[r]:
/// one coordinate per (other-axis id, source) pair in other-axis-major
/// order, valued 1 where that source's claim on the item matches
/// `reference` (Eq. 1). `masks` marks the coordinates that carry a claim.
/// Both outputs are resized to items.size() rows.
void FillTruthVectors(const DatasetLike& data, const GroundTruth& reference,
                      PartitionAxis axis, const std::vector<int32_t>& items,
                      std::vector<FeatureVector>* vectors,
                      std::vector<std::vector<uint8_t>>* masks);

/// Builds the truth-vector matrix for all active attributes of `data`,
/// against an explicit reference truth.
[[nodiscard]]
Result<TruthVectorMatrix> BuildTruthVectors(const DatasetLike& data,
                                            const GroundTruth& reference);

/// Convenience: first runs `base` on the whole dataset to obtain the
/// reference truth (the paper's buildTruthVectors(F, A, O, S)).
[[nodiscard]]
Result<TruthVectorMatrix> BuildTruthVectors(const TruthDiscovery& base,
                                            const DatasetLike& data);

}  // namespace tdac

#endif  // TDAC_TDAC_TRUTH_VECTORS_H_
