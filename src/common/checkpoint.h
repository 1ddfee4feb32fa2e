#ifndef TDAC_COMMON_CHECKPOINT_H_
#define TDAC_COMMON_CHECKPOINT_H_

#include <charconv>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace tdac {

/// \brief Durable, versioned, checksummed snapshots for long runs.
///
/// A checkpoint file is a single ASCII header line followed by an opaque
/// payload:
///
///     TDACCKPT <version> <crc32-hex> <payload-bytes>\n
///     <payload>
///
/// The header makes every torn-write and corruption mode detectable with a
/// *distinct* error: a file that does not start with the magic is rejected
/// as not-a-checkpoint, a version above kCheckpointVersion as
/// written-by-a-newer-build, a payload shorter than the declared length as
/// truncated, and any byte flip as a CRC mismatch. Writes go through
/// AtomicWriteFile, so a crash can never produce a half-written *current*
/// checkpoint — the torn cases exist only when something other than this
/// library wrote the file (or a fault hook simulated it), and loading
/// handles them anyway.
inline constexpr uint32_t kCheckpointVersion = 1;

/// Serializes `payload` into the checkpoint format and atomically writes it
/// to `path`.
[[nodiscard]] Status SaveCheckpoint(const std::string& path,
                                    std::string_view payload,
                                    uint32_t version = kCheckpointVersion);

/// Reads and validates a checkpoint, returning its payload. The failure
/// message always names `path` and the precise defect (bad magic /
/// unsupported future version / truncated payload / CRC mismatch).
[[nodiscard]] Result<std::string> LoadCheckpoint(const std::string& path);

/// \brief Configuration for a Checkpointer.
struct CheckpointOptions {
  /// Directory holding the checkpoint files. Empty disables checkpointing
  /// (every Checkpointer call becomes a no-op).
  std::string dir;

  /// Minimum milliseconds between interval snapshots of one slot.
  /// <= 0 snapshots at every opportunity (every MaybeStore call).
  double interval_ms = 1000.0;

  /// Whether LoadForResume may return previously saved state. Off, runs
  /// start fresh and overwrite whatever snapshots exist.
  bool resume = false;
};

/// \brief Manages named checkpoint slots for one run.
///
/// Each slot (e.g. "tdac.sweep") maps to `<dir>/<slot>.ckpt`. Stores keep
/// the previous snapshot as `<slot>.ckpt.prev` before the atomic swap, so
/// there is always a last-good file: a crash in the narrow window between
/// the two renames leaves only `.prev`, and a corrupt or torn current file
/// falls back to `.prev` on load. Callers snapshot *clean* state only —
/// state produced under a tripped guard is recomputed on resume instead of
/// persisted, which is what makes a resumed run bit-identical to an
/// uninterrupted one.
///
/// Stores put `CTX <EncodeToken(context)>` ahead of the payload, where the
/// context names the algorithm, the dataset fingerprint and the options that
/// shape results; a load under another context ignores the slot.
///
/// All methods are safe to call concurrently, but the intended pattern is
/// serial snapshots from the orchestrating thread at batch boundaries.
class Checkpointer {
 public:
  explicit Checkpointer(CheckpointOptions options);

  /// False when no directory was configured — all calls are no-ops.
  bool enabled() const { return !options_.dir.empty(); }

  const CheckpointOptions& options() const { return options_; }

  /// Returns the slot's payload when resuming and a valid snapshot exists:
  /// the current file if it validates, else the `.prev` fallback (with a
  /// warning logged naming the defect). Returns nullopt on a fresh start
  /// (resume off, no snapshot at all, or — with a warning — snapshots that
  /// are all invalid or the first valid one is from another `context`; a
  /// corrupt checkpoint never aborts a run, it just costs its progress).
  [[nodiscard]] Result<std::optional<std::string>> LoadForResume(
      const std::string& slot, std::string_view context) const;

  /// Interval snapshot: when the slot's interval has elapsed (or on the
  /// slot's first call with interval <= 0), stores `payload_fn()` under
  /// `context`. `payload_fn` is not called otherwise.
  [[nodiscard]] Status MaybeStore(
      const std::string& slot, std::string_view context,
      const std::function<std::string()>& payload_fn);

  /// Unconditional snapshot — the final checkpoint a Deadline/Cancelled
  /// stop writes before unwinding.
  [[nodiscard]] Status StoreNow(const std::string& slot,
                                std::string_view context,
                                std::string_view payload);

  /// Removes the slot's current, previous, and temp files — called on
  /// clean completion so a finished run leaves no stale resume state.
  [[nodiscard]] Status Remove(const std::string& slot);

 private:
  std::string SlotPath(const std::string& slot) const;

  CheckpointOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::chrono::steady_clock::time_point>
      last_store_;
};

/// Escapes an arbitrary byte string into a single whitespace-free token
/// ('%', whitespace, and control bytes become %XX), so serialized state can
/// be framed as space-separated fields on one line. Empty input encodes as
/// "%" (an impossible escape, used as the empty marker).
std::string EncodeToken(std::string_view raw);

/// Inverse of EncodeToken; fails on malformed escapes.
[[nodiscard]] Result<std::string> DecodeToken(std::string_view token);

/// Bit-exact double round-trip for checkpoint payloads: the IEEE-754 bits
/// as 16 hex digits. (Decimal formatting would round-trip too, but hex
/// makes the bit-identical-resume contract self-evident.)
std::string HexDouble(double value);
[[nodiscard]] Result<double> ParseHexDouble(std::string_view hex);

/// \brief Writes a checkpoint payload: records of fields separated by one
/// space, each record ended by End() with '\n'. Integers are decimal, bools
/// `0`/`1`, doubles HexDouble (bit-exact), and strings EncodeToken (so a
/// string is always exactly one field).
class PayloadWriter {
 public:
  template <typename T>
    requires std::is_integral_v<T>
  PayloadWriter& operator<<(T value) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    return Field(std::string_view(buf, static_cast<size_t>(end - buf)));
  }
  PayloadWriter& operator<<(bool value) { return Field(value ? "1" : "0"); }
  PayloadWriter& operator<<(double value) { return Field(HexDouble(value)); }
  PayloadWriter& operator<<(std::string_view value) {
    return Field(EncodeToken(value));
  }
  PayloadWriter& operator<<(const char* value) {
    return *this << std::string_view(value);
  }

  /// Ends the current record.
  PayloadWriter& End() {
    out_ += '\n';
    return *this;
  }

  /// The payload written so far; leaves the writer empty.
  std::string Take() { return std::move(out_); }

 private:
  PayloadWriter& Field(std::string_view text) {
    if (!out_.empty() && out_.back() != '\n') out_ += ' ';
    out_.append(text);
    return *this;
  }

  std::string out_;
};

/// \brief Reads a payload PayloadWriter wrote, field by field. Errors are
/// sticky: after the first bad field every read leaves its target alone and
/// Finish() reports that field, so a payload that passed its CRC but is
/// malformed costs the caller one Finish() check, never a crash.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : rest_(payload) {}

  /// Reads the next field into `value` (an integer, bool, double or
  /// string, encoded as PayloadWriter writes it).
  template <typename T>
  PayloadReader& operator>>(T& value) {
    std::optional<std::string_view> field = Next();
    if (field && !Parse(*field, &value)) {
      error_ = "bad field '" + std::string(*field) + "'";
    }
    return *this;
  }

  /// Reads an element count. Every element takes at least one byte, so a
  /// count larger than the bytes left fails the read (and returns 0): no
  /// payload can request a huge allocation.
  size_t Count();

  bool ok() const { return error_.empty(); }

  /// OK when every read succeeded and the whole payload was consumed;
  /// InvalidArgument naming the first defect otherwise.
  [[nodiscard]] Status Finish() const;

 private:
  std::optional<std::string_view> Next();

  template <typename T>
  static bool Parse(std::string_view field, T* value) {
    return ParseNumber(field, value);
  }
  static bool Parse(std::string_view field, bool* value);
  static bool Parse(std::string_view field, double* value);
  static bool Parse(std::string_view field, std::string* value);

  std::string_view rest_;
  std::string error_;
};

}  // namespace tdac

#endif  // TDAC_COMMON_CHECKPOINT_H_
