#include "gen/corrupt.h"

#include <algorithm>
#include <utility>

#include "common/csv.h"
#include "common/random.h"

namespace tdac {

namespace {

using Rows = std::vector<std::vector<std::string>>;

// Claim-file column layout (see data/dataset_io.h).
constexpr size_t kSourceCol = 0;
constexpr size_t kObjectCol = 1;
constexpr size_t kAttributeCol = 2;
constexpr size_t kKindCol = 3;
constexpr size_t kValueCol = 4;

/// Indices of data rows (excluding the header) selected at `rate`, with at
/// least one pick whenever any row exists.
std::vector<size_t> PickRows(const Rows& rows, double rate, Rng* rng) {
  std::vector<size_t> picked;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rng->NextBernoulli(rate)) picked.push_back(i);
  }
  if (picked.empty() && rows.size() > 1) {
    picked.push_back(1 + static_cast<size_t>(rng->NextBounded(
                             static_cast<uint64_t>(rows.size() - 1))));
  }
  return picked;
}

/// The most frequent attribute name among data rows (deterministic
/// tie-break: lexicographically smallest), so the column-level modes hit a
/// column that actually matters.
std::string BusiestAttribute(const Rows& rows) {
  std::string best;
  size_t best_count = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() <= kAttributeCol) continue;
    const std::string& name = rows[i][kAttributeCol];
    size_t count = 0;
    for (size_t j = 1; j < rows.size(); ++j) {
      if (rows[j].size() > kAttributeCol && rows[j][kAttributeCol] == name) {
        ++count;
      }
    }
    if (count > best_count || (count == best_count && name < best)) {
      best = name;
      best_count = count;
    }
  }
  return best;
}

std::string Render(const Rows& rows) {
  CsvWriter writer;
  for (const auto& row : rows) {
    writer.WriteRow(std::vector<std::string_view>(row.begin(), row.end()));
  }
  return writer.contents();
}

/// Overwrites ~rate of the bytes after the first newline with junk drawn
/// from a pool that includes quotes and delimiters, so the damage can break
/// CSV framing, not just field contents.
std::string GarbleBytes(std::string text, double rate, Rng* rng) {
  static const char kJunk[] = "\"',;\x01\x7f~#\\";
  const size_t header_end = text.find('\n');
  const size_t begin = header_end == std::string::npos ? 0 : header_end + 1;
  bool hit = false;
  for (size_t i = begin; i < text.size(); ++i) {
    if (!rng->NextBernoulli(rate)) continue;
    text[i] = kJunk[rng->NextBounded(sizeof(kJunk) - 1)];
    hit = true;
  }
  if (!hit && text.size() > begin) {
    const size_t i =
        begin + static_cast<size_t>(
                    rng->NextBounded(static_cast<uint64_t>(text.size() - begin)));
    text[i] = kJunk[rng->NextBounded(sizeof(kJunk) - 1)];
  }
  return text;
}

}  // namespace

const std::vector<CorruptionMode>& AllCorruptionModes() {
  static const std::vector<CorruptionMode> kModes = {
      CorruptionMode::kTruncateRows,        CorruptionMode::kGarbleBytes,
      CorruptionMode::kNonFiniteValues,     CorruptionMode::kWildValues,
      CorruptionMode::kDuplicateClaims,     CorruptionMode::kContradictoryClaims,
      CorruptionMode::kSingleSourceObjects, CorruptionMode::kConstantAttribute,
      CorruptionMode::kEmptyAttribute,
  };
  return kModes;
}

std::string_view CorruptionModeName(CorruptionMode mode) {
  switch (mode) {
    case CorruptionMode::kTruncateRows:
      return "truncate-rows";
    case CorruptionMode::kGarbleBytes:
      return "garble-bytes";
    case CorruptionMode::kNonFiniteValues:
      return "non-finite-values";
    case CorruptionMode::kWildValues:
      return "wild-values";
    case CorruptionMode::kDuplicateClaims:
      return "duplicate-claims";
    case CorruptionMode::kContradictoryClaims:
      return "contradictory-claims";
    case CorruptionMode::kSingleSourceObjects:
      return "single-source-objects";
    case CorruptionMode::kConstantAttribute:
      return "constant-attribute";
    case CorruptionMode::kEmptyAttribute:
      return "empty-attribute";
  }
  return "unknown";
}

std::string CorruptClaimCsv(const std::string& claim_csv,
                            const CorruptionOptions& options) {
  Rng rng(options.seed);

  if (options.mode == CorruptionMode::kGarbleBytes) {
    // Byte damage is deliberately applied to the rendered text — a parse
    // round-trip would sanitize exactly the framing breaks we want.
    return GarbleBytes(claim_csv, options.rate, &rng);
  }

  Result<Rows> parsed = ParseCsv(claim_csv);
  if (!parsed.ok()) {
    // Already-malformed input: pile on byte damage rather than giving up.
    return GarbleBytes(claim_csv, options.rate, &rng);
  }
  Rows rows = std::move(parsed).value();
  if (rows.size() <= 1) return claim_csv;

  switch (options.mode) {
    case CorruptionMode::kGarbleBytes:
      break;  // handled above
    case CorruptionMode::kTruncateRows: {
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        if (rows[i].empty()) continue;
        const size_t keep =
            static_cast<size_t>(rng.NextBounded(rows[i].size()));
        rows[i].resize(keep);
      }
      break;
    }
    case CorruptionMode::kNonFiniteValues: {
      static const char* kLiterals[] = {"nan", "inf", "-inf"};
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        if (rows[i].size() <= kValueCol) continue;
        rows[i][kKindCol] = "double";
        rows[i][kValueCol] = kLiterals[rng.NextBounded(3)];
      }
      break;
    }
    case CorruptionMode::kWildValues: {
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        if (rows[i].size() <= kValueCol) continue;
        rows[i][kKindCol] = "double";
        rows[i][kValueCol] = rng.NextBernoulli(0.5) ? "1e308" : "-1e308";
      }
      break;
    }
    case CorruptionMode::kDuplicateClaims: {
      Rows extra;
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        extra.push_back(rows[i]);
      }
      rows.insert(rows.end(), extra.begin(), extra.end());
      break;
    }
    case CorruptionMode::kContradictoryClaims: {
      Rows extra;
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        if (rows[i].size() <= kValueCol) continue;
        std::vector<std::string> twin = rows[i];
        // The twin must come from a fresh source: ingestion keys claims by
        // (source, object, attribute), so a same-source contradiction would
        // be refused at the door instead of reaching the algorithms.
        twin[kSourceCol] = "contrarian_" + std::to_string(i);
        twin[kKindCol] = "string";
        twin[kValueCol] = "contradiction_" + std::to_string(i);
        extra.push_back(std::move(twin));
      }
      rows.insert(rows.end(), extra.begin(), extra.end());
      break;
    }
    case CorruptionMode::kSingleSourceObjects: {
      size_t next_id = 0;
      for (size_t i : PickRows(rows, options.rate, &rng)) {
        if (rows[i].size() <= kObjectCol) continue;
        rows[i][kObjectCol] = "lonely_object_" + std::to_string(next_id++);
      }
      break;
    }
    case CorruptionMode::kConstantAttribute: {
      const std::string target = BusiestAttribute(rows);
      for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].size() > kValueCol && rows[i][kAttributeCol] == target) {
          rows[i][kKindCol] = "string";
          rows[i][kValueCol] = "the_one_constant";
        }
      }
      break;
    }
    case CorruptionMode::kEmptyAttribute: {
      const std::string target = BusiestAttribute(rows);
      Rows kept;
      kept.push_back(rows[0]);
      for (size_t i = 1; i < rows.size(); ++i) {
        if (rows[i].size() > kAttributeCol &&
            rows[i][kAttributeCol] == target) {
          continue;
        }
        kept.push_back(std::move(rows[i]));
      }
      rows = std::move(kept);
      break;
    }
  }
  return Render(rows);
}

}  // namespace tdac
