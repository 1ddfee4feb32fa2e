#ifndef TDAC_DATA_DATASET_IO_H_
#define TDAC_DATA_DATASET_IO_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/predictions.h"

namespace tdac {

/// \brief CSV serialization for datasets and ground truths.
///
/// Claim files have a header row `source,object,attribute,kind,value` where
/// kind is `string` | `int` | `double`. Truth files have
/// `object,attribute,kind,value` and resolve names against a dataset;
/// trust files have `source,trust`.
///
/// Loading streams rows (ForEachCsvRow) straight into a builder or the
/// result; no document is built. One leading UTF-8 byte-order mark is
/// skipped. The first row must then be exactly the file's header; anything
/// else fails with InvalidArgument (`claim CSV line 1: expected header
/// source,object,attribute,kind,value`) rather than silently dropping a
/// headerless file's first record. Every error names the 1-based physical
/// line of the row it blames.
///
/// A claim file is loaded in byte chunks cut at record starts
/// (CsvRecordCuts), each parsed on the shared thread pool into a builder of
/// its own and appended to the first in file order (DatasetBuilder::Append).
/// The chunk count comes from `threads` and the file's size, and the
/// serial load is the one-chunk case. Every id, every error and the built
/// store are the same at every thread count: names and values get their
/// ids in first-seen file order, and the error reported is the first in
/// the file.

/// Renders `dataset` as claim-file CSV text.
std::string DatasetToCsv(const Dataset& dataset);

/// Parses claim-file CSV text into a Dataset, on up to `threads` threads
/// (TdacOptions::threads semantics: 0 means the process default, 1 the
/// serial path). A malformed row fails the load, and the first one in the
/// file is named, whichever chunk holds it; a repeated (source, object,
/// attribute) fails only once every row has been read, with AlreadyExists
/// naming the line of its first repeat. So a malformed row anywhere in the
/// file is reported before any repeat.
[[nodiscard]]
Result<Dataset> DatasetFromCsv(const std::string& text, int threads = 0);

[[nodiscard]]
Status SaveDataset(const Dataset& dataset, const std::string& path);
/// Reads `path` and parses it with DatasetFromCsv on up to `threads`
/// threads.
[[nodiscard]]
Result<Dataset> LoadDataset(const std::string& path, int threads = 0);

/// Renders `truth` (with names resolved via `dataset`) as truth-file CSV.
std::string GroundTruthToCsv(const GroundTruth& truth, const Dataset& dataset);

/// Renders a run's predictions on `dataset` as truth-file CSV: the bytes
/// GroundTruthToCsv writes for the same values, streamed in key order with
/// each value read through `dataset`'s dictionary.
std::string GroundTruthToCsv(const Predictions& predicted,
                             const Dataset& dataset);

/// Parses truth-file CSV, resolving names against `dataset`. Rows naming
/// unknown objects/attributes fail with NotFound; a second row for one
/// (object, attribute) fails with AlreadyExists.
[[nodiscard]] Result<GroundTruth> GroundTruthFromCsv(const std::string& text,
                                                     const Dataset& dataset);

[[nodiscard]]
Status SaveGroundTruth(const GroundTruth& truth, const Dataset& dataset,
                       const std::string& path);
[[nodiscard]]
Status SaveGroundTruth(const Predictions& predicted, const Dataset& dataset,
                       const std::string& path);
[[nodiscard]] Result<GroundTruth> LoadGroundTruth(const std::string& path,
                                                  const Dataset& dataset);

/// Renders per-source trust (indexed by SourceId) as `source,trust` CSV.
std::string SourceTrustToCsv(const std::vector<double>& trust,
                             const Dataset& dataset);

/// Parses a trust CSV back into a vector indexed by `dataset`'s source ids;
/// sources absent from the file keep 0. Unknown names fail with NotFound;
/// a second row for one source fails with AlreadyExists.
[[nodiscard]]
Result<std::vector<double>> SourceTrustFromCsv(const std::string& text,
                                               const Dataset& dataset);

[[nodiscard]] Status SaveSourceTrust(const std::vector<double>& trust,
                                     const Dataset& dataset,
                                     const std::string& path);
[[nodiscard]]
Result<std::vector<double>> LoadSourceTrust(const std::string& path,
                                            const Dataset& dataset);

namespace dataset_io_internal {

/// DatasetFromCsv with the text cut into at most `chunks` pieces
/// (CsvRecordCuts) whatever its size, parsed on up to `threads` threads:
/// lets tests compare loads cut in different places on one input.
[[nodiscard]] Result<Dataset> DatasetFromCsvInChunks(std::string_view text,
                                                     size_t chunks,
                                                     int threads);

}  // namespace dataset_io_internal

}  // namespace tdac

#endif  // TDAC_DATA_DATASET_IO_H_
