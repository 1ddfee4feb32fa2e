#include "data/dataset_io.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/csv.h"
#include "common/io.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "data/dataset_builder.h"

namespace tdac {

namespace {

const char* KindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kInt:
      return "int";
    case Value::Kind::kDouble:
      return "double";
  }
  return "string";
}

Result<Value::Kind> ParseKind(std::string_view s) {
  if (s == "string") return Value::Kind::kString;
  if (s == "int") return Value::Kind::kInt;
  if (s == "double") return Value::Kind::kDouble;
  return Status::InvalidArgument("unknown value kind '" + std::string(s) +
                                 "'");
}

/// Prefixes an ingestion error with the 1-based input line and the field
/// that failed, e.g. `claim CSV line 7, field "kind": ...`; an empty
/// `field` blames the whole row (`claim CSV line 7: ...`).
Status AtLine(std::string_view file_kind, size_t line, std::string_view field,
              const Status& status) {
  const std::string where =
      field.empty() ? "" : ", field \"" + std::string(field) + "\"";
  return Status(status.code(), std::string(file_kind) + " line " +
                                   std::to_string(line) + where + ": " +
                                   status.message());
}

/// Parses the typed value of a row, reporting the offending text on error.
Result<Value> ParseRowValue(std::string_view file_kind, size_t line,
                            std::string_view kind_text,
                            std::string_view value_text) {
  Result<Value::Kind> kind = ParseKind(kind_text);
  if (!kind.ok()) return AtLine(file_kind, line, "kind", kind.status());
  Result<Value> value = Value::FromTextChecked(kind.value(), value_text);
  if (!value.ok()) return AtLine(file_kind, line, "value", value.status());
  return value;
}

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
// Each file's header row, written by the savers and required by the
// loaders.
constexpr std::string_view kClaimHeader = "source,object,attribute,kind,value";
constexpr std::string_view kTruthHeader = "object,attribute,kind,value";
constexpr std::string_view kTrustHeader = "source,trust";
constexpr std::string_view kClaimCsv = "claim CSV";

// A claim file is cut into pieces of at least this many bytes, so a small
// file loads as one piece: below it, a piece's parse costs about what
// starting a task and merging its tables cost.
constexpr size_t kMinChunkBytes = size_t{1} << 20;

std::string_view WithoutBom(std::string_view text) {
  if (text.starts_with(kUtf8Bom)) text.remove_prefix(kUtf8Bom.size());
  return text;
}

/// Streams the records of `text` — a `file_kind` CSV without its
/// byte-order mark, or a piece of one cut at a record start — to
/// `on_record`, each once it has as many fields as `header`. With
/// `header_first`, the first row must be exactly `header` and is not handed
/// over, and a text without rows fails as `empty <file_kind>`. Lines are
/// counted from `*line` as in ForEachCsvRow.
Status ScanRecords(std::string_view text, std::string_view file_kind,
                   std::string_view header, bool header_first, size_t* line,
                   const CsvRowFn& on_record) {
  const std::vector<std::string> expected = Split(header, ',');
  bool header_seen = !header_first;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, ',',
      [&](std::span<const std::string_view> row, size_t row_line) {
        if (!header_seen) {
          header_seen = true;
          if (std::ranges::equal(row, expected)) return Status::OK();
          return AtLine(file_kind, row_line, "",
                        Status::InvalidArgument("expected header " +
                                                std::string(header)));
        }
        if (row.size() != expected.size()) {
          return AtLine(file_kind, row_line, "",
                        Status::InvalidArgument(
                            "expected " + std::to_string(expected.size()) +
                            " fields (" + std::string(header) + "), got " +
                            std::to_string(row.size())));
        }
        return on_record(row, row_line);
      },
      line));
  if (!header_seen) {
    return Status::InvalidArgument("empty " + std::string(file_kind));
  }
  return Status::OK();
}

/// ScanRecords over a whole file: skips one leading UTF-8 byte-order mark
/// and requires the header.
Status ForEachRecord(std::string_view text, std::string_view file_kind,
                     std::string_view header, const CsvRowFn& on_record) {
  return ScanRecords(WithoutBom(text), file_kind, header,
                     /*header_first=*/true, /*line=*/nullptr, on_record);
}

/// Parses the claim rows of `text`, a claim file without its byte-order
/// mark or a piece of one (see ScanRecords), into `builder`.
Status LoadClaims(std::string_view text, bool header_first, size_t* line,
                  DatasetBuilder* builder) {
  return ScanRecords(
      text, kClaimCsv, kClaimHeader, header_first, line,
      [builder](std::span<const std::string_view> row,
                size_t row_line) -> Status {
        TDAC_ASSIGN_OR_RETURN(
            Value value, ParseRowValue(kClaimCsv, row_line, row[3], row[4]));
        Status added =
            builder->AddClaim(row[0], row[1], row[2], std::move(value));
        if (!added.ok()) return AtLine(kClaimCsv, row_line, "", added);
        return Status::OK();
      });
}

}  // namespace

std::string DatasetToCsv(const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow(Split(kClaimHeader, ','));
  const ValueDict& dict = dataset.value_dict();
  for (size_t i = 0; i < dataset.num_claims(); ++i) {
    const ValueId value = dataset.claim_value_ids()[i];
    w.WriteRow({dataset.source_name(dataset.claim_sources()[i]),
                dataset.object_name(dataset.claim_objects()[i]),
                dataset.attribute_name(dataset.claim_attributes()[i]),
                KindName(dict.kind(value)), dict.ValueAt(value).ToString()});
  }
  return w.contents();
}

namespace dataset_io_internal {

Result<Dataset> DatasetFromCsvInChunks(std::string_view text, size_t chunks,
                                       int threads) {
  text = WithoutBom(text);
  const std::vector<size_t> bounds = CsvRecordCuts(text, ',', chunks);
  const size_t pieces = bounds.size() - 1;
  auto piece = [&](size_t c) {
    return text.substr(bounds[c], bounds[c + 1] - bounds[c]);
  };
  std::vector<DatasetBuilder> builders(pieces);
  std::vector<Status> statuses(pieces);
  // Each piece counts its lines from 1, so it spans end_lines[c] - 1.
  std::vector<size_t> end_lines(pieces, 1);
  ParallelForOptions options;
  options.max_parallelism = threads;
  ParallelFor(
      pieces,
      [&](size_t c) {
        statuses[c] = LoadClaims(piece(c), /*header_first=*/c == 0,
                                 &end_lines[c], &builders[c]);
      },
      options);
  // A piece stops at its first error, so the earliest piece that failed
  // holds the file's first error. Every piece before it was read whole,
  // which gives its first line; reading it again from there makes the
  // error cite the file's line.
  size_t first_line = 1;
  for (size_t c = 0; c < pieces; ++c) {
    if (!statuses[c].ok()) {
      if (c == 0) return statuses[c];
      DatasetBuilder discarded;
      return LoadClaims(piece(c), /*header_first=*/false, &first_line,
                        &discarded);
    }
    first_line += end_lines[c] - 1;
  }
  DatasetBuilder& builder = builders[0];
  for (size_t c = 1; c < pieces; ++c) {
    builder.Append(builders[c]);
    builders[c] = DatasetBuilder();
  }
  size_t repeated = 0;
  Result<Dataset> built = builder.Build(&repeated);
  if (built.ok() || built.status().code() != StatusCode::kAlreadyExists) {
    return built;
  }
  // Claim i is record i; only this error path looks for its line.
  size_t record = 0;
  size_t line_of_repeat = 0;
  TDAC_RETURN_NOT_OK(ScanRecords(
      text, kClaimCsv, kClaimHeader, /*header_first=*/true, /*line=*/nullptr,
      [&](std::span<const std::string_view>, size_t line) {
        if (record++ == repeated) line_of_repeat = line;
        return Status::OK();
      }));
  return AtLine(kClaimCsv, line_of_repeat, "", built.status());
}

}  // namespace dataset_io_internal

Result<Dataset> DatasetFromCsv(const std::string& text, int threads) {
  const int width = EffectiveThreadCount(threads);
  const size_t chunks = std::clamp<size_t>(text.size() / kMinChunkBytes, 1,
                                           static_cast<size_t>(width));
  return dataset_io_internal::DatasetFromCsvInChunks(text, chunks, width);
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  return AtomicWriteFile(path, DatasetToCsv(dataset));
}

Result<Dataset> LoadDataset(const std::string& path, int threads) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return DatasetFromCsv(text, threads);
}

std::string GroundTruthToCsv(const GroundTruth& truth,
                             const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow(Split(kTruthHeader, ','));
  for (uint64_t key : truth.SortedKeys()) {
    ObjectId o = ObjectFromKey(key);
    AttributeId a = AttributeFromKey(key);
    const Value* v = truth.Get(o, a);
    w.WriteRow({dataset.object_name(o), dataset.attribute_name(a),
                KindName(v->kind()), v->ToString()});
  }
  return w.contents();
}

Result<GroundTruth> GroundTruthFromCsv(const std::string& text,
                                       const Dataset& dataset) {
  std::unordered_map<std::string, ObjectId> objects;
  for (int o = 0; o < dataset.num_objects(); ++o) {
    objects[dataset.object_name(o)] = o;
  }
  std::unordered_map<std::string, AttributeId> attributes;
  for (int a = 0; a < dataset.num_attributes(); ++a) {
    attributes[dataset.attribute_name(a)] = a;
  }
  GroundTruth truth;
  TDAC_RETURN_NOT_OK(ForEachRecord(
      text, "truth CSV", kTruthHeader,
      [&](std::span<const std::string_view> row, size_t line) -> Status {
        const std::string object(row[0]);
        const std::string attribute(row[1]);
        auto oit = objects.find(object);
        if (oit == objects.end()) {
          return AtLine("truth CSV", line, "object",
                        Status::NotFound("unknown object '" + object + "'"));
        }
        auto ait = attributes.find(attribute);
        if (ait == attributes.end()) {
          return AtLine(
              "truth CSV", line, "attribute",
              Status::NotFound("unknown attribute '" + attribute + "'"));
        }
        TDAC_ASSIGN_OR_RETURN(
            Value value, ParseRowValue("truth CSV", line, row[2], row[3]));
        if (truth.Get(oit->second, ait->second) != nullptr) {
          return AtLine("truth CSV", line, "",
                        Status::AlreadyExists("duplicate truth for (object=" +
                                              object + ", attribute=" +
                                              attribute + ")"));
        }
        truth.Set(oit->second, ait->second, std::move(value));
        return Status::OK();
      }));
  return truth;
}

Status SaveGroundTruth(const GroundTruth& truth, const Dataset& dataset,
                       const std::string& path) {
  return AtomicWriteFile(path, GroundTruthToCsv(truth, dataset));
}

std::string SourceTrustToCsv(const std::vector<double>& trust,
                             const Dataset& dataset) {
  CsvWriter w;
  w.WriteRow(Split(kTrustHeader, ','));
  const size_t n = std::min(trust.size(),
                            static_cast<size_t>(dataset.num_sources()));
  for (size_t s = 0; s < n; ++s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", trust[s]);
    w.WriteRow({dataset.source_name(static_cast<SourceId>(s)), buf});
  }
  return w.contents();
}

Result<std::vector<double>> SourceTrustFromCsv(const std::string& text,
                                               const Dataset& dataset) {
  std::unordered_map<std::string, SourceId> sources;
  for (int s = 0; s < dataset.num_sources(); ++s) {
    sources[dataset.source_name(s)] = s;
  }
  std::vector<double> trust(static_cast<size_t>(dataset.num_sources()), 0.0);
  std::vector<char> seen(trust.size(), 0);
  TDAC_RETURN_NOT_OK(ForEachRecord(
      text, "trust CSV", kTrustHeader,
      [&](std::span<const std::string_view> row, size_t line) -> Status {
        const std::string source(row[0]);
        auto it = sources.find(source);
        if (it == sources.end()) {
          return AtLine("trust CSV", line, "source",
                        Status::NotFound("unknown source '" + source + "'"));
        }
        Result<Value> parsed =
            Value::FromTextChecked(Value::Kind::kDouble, row[1]);
        if (!parsed.ok()) {
          return AtLine("trust CSV", line, "trust", parsed.status());
        }
        const auto s = static_cast<size_t>(it->second);
        if (seen[s]) {
          return AtLine("trust CSV", line, "source",
                        Status::AlreadyExists("duplicate trust for source '" +
                                              source + "'"));
        }
        seen[s] = 1;
        trust[s] = parsed.value().AsDouble();
        return Status::OK();
      }));
  return trust;
}

Status SaveSourceTrust(const std::vector<double>& trust,
                       const Dataset& dataset, const std::string& path) {
  return AtomicWriteFile(path, SourceTrustToCsv(trust, dataset));
}

Result<std::vector<double>> LoadSourceTrust(const std::string& path,
                                            const Dataset& dataset) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return SourceTrustFromCsv(text, dataset);
}

Result<GroundTruth> LoadGroundTruth(const std::string& path,
                                    const Dataset& dataset) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return GroundTruthFromCsv(text, dataset);
}

}  // namespace tdac
