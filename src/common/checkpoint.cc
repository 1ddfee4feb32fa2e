#include "common/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/csv.h"
#include "common/io.h"
#include "common/logging.h"

namespace tdac {

namespace {

constexpr std::string_view kMagic = "TDACCKPT";

/// The line that binds a stored payload to the run that wrote it.
std::string ContextLine(std::string_view context) {
  return "CTX " + EncodeToken(context) + "\n";
}

/// Parses exactly `hex.size()` hex digits into `*value`.
bool ParseHex(std::string_view hex, uint64_t* value) {
  const char* end = hex.data() + hex.size();
  const auto [stop, ec] = std::from_chars(hex.data(), end, *value, 16);
  return !hex.empty() && ec == std::errc() && stop == end;
}

}  // namespace

Status SaveCheckpoint(const std::string& path, std::string_view payload,
                      uint32_t version) {
  char header[64];
  std::snprintf(header, sizeof(header), "TDACCKPT %u %08x %zu\n", version,
                Crc32(payload), payload.size());
  std::string contents = header;
  contents.append(payload.data(), payload.size());
  return AtomicWriteFile(path, contents);
}

Result<std::string> LoadCheckpoint(const std::string& path) {
  TDAC_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));

  const size_t newline = contents.find('\n');
  if (newline == std::string::npos ||
      contents.compare(0, kMagic.size(), kMagic) != 0 ||
      (contents.size() > kMagic.size() && contents[kMagic.size()] != ' ')) {
    return Status::InvalidArgument("checkpoint " + path +
                                   ": bad magic — not a TD-AC checkpoint");
  }
  unsigned version = 0;
  unsigned long crc = 0;
  size_t declared = 0;
  const std::string header = contents.substr(0, newline);
  if (std::sscanf(header.c_str() + kMagic.size(), " %u %lx %zu", &version,
                  &crc, &declared) != 3) {
    return Status::InvalidArgument("checkpoint " + path +
                                   ": bad magic — malformed header");
  }
  if (version > kCheckpointVersion) {
    return Status::FailedPrecondition(
        "checkpoint " + path + ": version " + std::to_string(version) +
        " is newer than this build supports (" +
        std::to_string(kCheckpointVersion) + ")");
  }
  const std::string_view payload =
      std::string_view(contents).substr(newline + 1);
  if (payload.size() < declared) {
    return Status::IoError("checkpoint " + path + ": truncated payload (" +
                           std::to_string(payload.size()) + " of " +
                           std::to_string(declared) + " bytes)");
  }
  if (payload.size() > declared) {
    return Status::IoError("checkpoint " + path + ": trailing garbage (" +
                           std::to_string(payload.size()) + " bytes, " +
                           std::to_string(declared) + " declared)");
  }
  const uint32_t actual = Crc32(payload);
  if (actual != static_cast<uint32_t>(crc)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%08lx vs computed %08x", crc, actual);
    return Status::IoError("checkpoint " + path +
                           ": CRC mismatch (stored " + buf + ")");
  }
  return std::string(payload);
}

Checkpointer::Checkpointer(CheckpointOptions options)
    : options_(std::move(options)) {}

std::string Checkpointer::SlotPath(const std::string& slot) const {
  return options_.dir + "/" + slot + ".ckpt";
}

Result<std::optional<std::string>> Checkpointer::LoadForResume(
    const std::string& slot, std::string_view context) const {
  if (!enabled() || !options_.resume) return std::optional<std::string>();
  const std::string path = SlotPath(slot);
  const std::string prev = path + ".prev";
  const bool have_current = FileExists(path);
  const bool have_prev = FileExists(prev);
  if (!have_current && !have_prev) return std::optional<std::string>();

  // A valid snapshot resumes only the run that wrote it.
  const auto bound = [&](std::string stored) -> std::optional<std::string> {
    const std::string line = ContextLine(context);
    if (stored.starts_with(line)) return stored.substr(line.size());
    TDAC_LOG_WARNING << "checkpoint slot '" << slot
                     << "': context mismatch (stored snapshot is from a "
                     << "different run); ignoring it";
    return std::nullopt;
  };
  if (have_current) {
    Result<std::string> loaded = LoadCheckpoint(path);
    if (loaded.ok()) return bound(loaded.MoveValue());
    TDAC_LOG_WARNING << "checkpoint slot '" << slot
                     << "': current snapshot rejected ("
                     << loaded.status().message()
                     << "); falling back to last-good";
  }
  if (have_prev) {
    Result<std::string> loaded = LoadCheckpoint(prev);
    if (loaded.ok()) return bound(loaded.MoveValue());
    TDAC_LOG_WARNING << "checkpoint slot '" << slot
                     << "': last-good snapshot also rejected ("
                     << loaded.status().message() << "); starting fresh";
    return std::optional<std::string>();
  }
  TDAC_LOG_WARNING << "checkpoint slot '" << slot
                   << "': no last-good snapshot to fall back to; "
                   << "starting fresh";
  return std::optional<std::string>();
}

Status Checkpointer::MaybeStore(
    const std::string& slot, std::string_view context,
    const std::function<std::string()>& payload_fn) {
  if (!enabled()) return Status::OK();
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = last_store_.find(slot);
    if (it != last_store_.end() && options_.interval_ms > 0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(now - it->second).count();
      if (elapsed_ms < options_.interval_ms) return Status::OK();
    }
  }
  return StoreNow(slot, context, payload_fn());
}

Status Checkpointer::StoreNow(const std::string& slot,
                              std::string_view context,
                              std::string_view payload) {
  if (!enabled()) return Status::OK();
  const std::string path = SlotPath(slot);
  // Rotate the current snapshot to last-good before the atomic swap: a
  // crash between the two renames leaves only `.prev`, which LoadForResume
  // falls back to.
  if (FileExists(path)) {
    TDAC_RETURN_NOT_OK(RenameFile(path, path + ".prev"));
  }
  std::string contents = ContextLine(context);
  contents.append(payload.data(), payload.size());
  TDAC_RETURN_NOT_OK(SaveCheckpoint(path, contents));
  std::lock_guard<std::mutex> lock(mu_);
  last_store_[slot] = std::chrono::steady_clock::now();
  return Status::OK();
}

Status Checkpointer::Remove(const std::string& slot) {
  if (!enabled()) return Status::OK();
  const std::string path = SlotPath(slot);
  TDAC_RETURN_NOT_OK(RemoveFile(path));
  TDAC_RETURN_NOT_OK(RemoveFile(path + ".prev"));
  TDAC_RETURN_NOT_OK(RemoveFile(AtomicWriteTempPath(path)));
  std::lock_guard<std::mutex> lock(mu_);
  last_store_.erase(slot);
  return Status::OK();
}

std::string EncodeToken(std::string_view raw) {
  if (raw.empty()) return "%";
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (c == '%' || c <= 0x20 || c == 0x7f) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

Result<std::string> DecodeToken(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    uint64_t value = 0;
    if (i + 2 >= token.size() || !ParseHex(token.substr(i + 1, 2), &value)) {
      return Status::InvalidArgument("malformed token escape in '" +
                                     std::string(token) + "'");
    }
    out += static_cast<char>(value);
    i += 2;
  }
  return out;
}

std::string HexDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

Result<double> ParseHexDouble(std::string_view hex) {
  uint64_t bits = 0;
  if (hex.size() != 16 || !ParseHex(hex, &bits)) {
    return Status::InvalidArgument("bad hex double '" + std::string(hex) +
                                   "'");
  }
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::optional<std::string_view> PayloadReader::Next() {
  if (!ok()) return std::nullopt;
  rest_.remove_prefix(std::min(rest_.find_first_not_of(" \n"), rest_.size()));
  if (rest_.empty()) {
    error_ = "payload ends early";
    return std::nullopt;
  }
  const std::string_view field = rest_.substr(0, rest_.find_first_of(" \n"));
  rest_.remove_prefix(field.size());
  return field;
}

bool PayloadReader::Parse(std::string_view field, bool* value) {
  if (field != "0" && field != "1") return false;
  *value = field == "1";
  return true;
}

bool PayloadReader::Parse(std::string_view field, double* value) {
  Result<double> parsed = ParseHexDouble(field);
  if (parsed.ok()) *value = parsed.value();
  return parsed.ok();
}

bool PayloadReader::Parse(std::string_view field, std::string* value) {
  Result<std::string> decoded = DecodeToken(field);
  if (decoded.ok()) *value = decoded.MoveValue();
  return decoded.ok();
}

size_t PayloadReader::Count() {
  size_t count = 0;
  *this >> count;
  if (ok() && count > rest_.size()) {
    error_ = "count " + std::to_string(count) + " exceeds the payload";
    return 0;
  }
  return count;
}

Status PayloadReader::Finish() const {
  if (ok() && rest_.find_first_not_of(" \n") == std::string_view::npos) {
    return Status::OK();
  }
  return Status::InvalidArgument("malformed checkpoint payload: " +
                                 (ok() ? "trailing bytes" : error_));
}

}  // namespace tdac
