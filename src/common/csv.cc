#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace tdac {

namespace {

bool NeedsQuoting(std::string_view field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

/// The first quote at or after `from` that opens a field, for a `from`
/// outside every quoted field: a quote at the text's start or right after
/// a delimiter or a line end. Any other quote there is content.
size_t NextOpeningQuote(std::string_view text, char delimiter, size_t from) {
  for (size_t q = text.find('"', from); q != std::string_view::npos;
       q = text.find('"', q + 1)) {
    if (q == 0) return q;
    const char before = text[q - 1];
    if (before == delimiter || before == '\r' || before == '\n') return q;
  }
  return std::string_view::npos;
}

/// The quote that closes the quoted field opened at `open`, skipping `""`
/// escapes; npos when the text ends inside the field.
size_t ClosingQuote(std::string_view text, size_t open) {
  size_t q = text.find('"', open + 1);
  while (q != std::string_view::npos && q + 1 < text.size() &&
         text[q + 1] == '"') {
    q = text.find('"', q + 2);
  }
  return q;
}

}  // namespace

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) buffer_ += delimiter_;
    const std::string& f = fields[i];
    if (NeedsQuoting(f, delimiter_)) {
      buffer_ += '"';
      for (char c : f) {
        if (c == '"') buffer_ += '"';
        buffer_ += c;
      }
      buffer_ += '"';
    } else {
      buffer_ += f;
    }
  }
  buffer_ += '\n';
}

Status ForEachCsvRow(std::string_view text, char delimiter,
                     const CsvRowFn& on_row, size_t* line_io) {
  // fields[0..count] hold the row in progress, fields[count] being the open
  // field. A field views `text` while it is one contiguous run of it. A
  // `""` escape, or text after a closing quote, breaks the run: the field
  // is then built in owned[k] (is_owned[k] set), and its view is pointed
  // there when the row ends, once `owned` can no longer grow. The buffers
  // are reused from row to row, so a steady-state row allocates nothing.
  std::vector<std::string_view> fields(1);
  std::vector<std::string> owned(1);
  std::vector<char> is_owned(1, 0);
  size_t count = 0;
  bool in_quotes = false;
  bool field_started = false;
  size_t line = line_io != nullptr ? *line_io : 1;  // physical line scanned
  size_t row_start_line = line;  // line on which the in-progress row began
  size_t quote_open_line = line;
  size_t i = 0;
  const size_t n = text.size();
  std::array<bool, 256> special{};
  for (char c : {delimiter, '"', '\r', '\n'}) {
    special[static_cast<unsigned char>(c)] = true;
  }
  // Appends text[from, to) to the open field.
  auto append = [&](size_t from, size_t to) {
    if (from == to) return;
    std::string_view& field = fields[count];
    if (!is_owned[count]) {
      if (field.empty()) {
        field = text.substr(from, to - from);
        return;
      }
      if (field.data() + field.size() == text.data() + from) {
        field = std::string_view(field.data(), field.size() + (to - from));
        return;
      }
      owned[count].assign(field);
      is_owned[count] = 1;
    }
    owned[count].append(text, from, to - from);
  };
  auto open_field = [&](size_t k) {
    fields[k] = {};
    is_owned[k] = 0;
    field_started = false;
  };
  auto end_field = [&] {
    if (++count == fields.size()) {
      fields.emplace_back();
      owned.emplace_back();
      is_owned.push_back(0);
    }
    open_field(count);
  };
  auto end_row = [&] {
    for (size_t k = 0; k <= count; ++k) {
      if (is_owned[k]) fields[k] = owned[k];
    }
    Status status = on_row(
        std::span<const std::string_view>(fields.data(), count + 1),
        row_start_line);
    count = 0;
    open_field(0);
    return status;
  };
  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      // Take the run up to the next quote at once; quoted fields may span
      // physical lines.
      const size_t quote = text.find('"', i);
      const size_t stop = quote == std::string_view::npos ? n : quote;
      line += static_cast<size_t>(
          std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                     text.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
      append(i, stop);
      i = stop;
      if (i == n) break;
      if (i + 1 < n && text[i + 1] == '"') {
        append(i, i + 1);  // `""` is one quote of content
        i += 2;
      } else {
        in_quotes = false;
        ++i;
      }
    } else if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
      quote_open_line = line;
      ++i;
    } else if (c == delimiter) {
      end_field();
      ++i;
    } else if (c == '\r' || c == '\n') {
      // Row terminator, RFC 4180 lenient: CRLF counts once, and a bare CR
      // (classic-Mac line ending) ends the row too instead of silently
      // vanishing from the field.
      TDAC_RETURN_NOT_OK(end_row());
      ++i;
      if (c == '\r' && i < n && text[i] == '\n') ++i;
      ++line;
      row_start_line = line;
    } else {
      // Plain content (a quote after the field's start is content too):
      // take the run up to the next special character at once.
      size_t stop = i + 1;
      while (stop < n && !special[static_cast<unsigned char>(text[stop])]) {
        ++stop;
      }
      append(i, stop);
      field_started = true;
      i = stop;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        "CSV ends inside a quoted field (quote opened on line " +
        std::to_string(quote_open_line) + ")");
  }
  if (field_started || count > 0) TDAC_RETURN_NOT_OK(end_row());
  if (line_io != nullptr) *line_io = line;
  return Status::OK();
}

std::vector<size_t> CsvRecordCuts(std::string_view text, char delimiter,
                                  size_t parts) {
  const size_t n = text.size();
  std::vector<size_t> bounds = {0};
  // `open` is the first field-opening quote at or after a position known
  // to lie outside every quoted field; every byte before `open` from there
  // is outside quotes too.
  size_t open = NextOpeningQuote(text, delimiter, 0);
  for (size_t part = 1; part < parts; ++part) {
    size_t from = std::max(part * n / parts, bounds.back());
    size_t cut = n;
    for (;;) {
      size_t end = from;
      while (end < n && text[end] != '\n' && text[end] != '\r') ++end;
      if (end == n) break;
      if (open != std::string_view::npos && open < end) {
        // The line end may lie inside the quoted field: move past it.
        const size_t close = ClosingQuote(text, open);
        if (close == std::string_view::npos) break;  // never closes
        open = NextOpeningQuote(text, delimiter, close + 1);
        from = std::max(from, close + 1);
        continue;
      }
      cut = end + 1;
      if (text[end] == '\r' && cut < n && text[cut] == '\n') ++cut;
      break;
    }
    if (cut >= n) break;
    bounds.push_back(cut);
  }
  bounds.push_back(n);
  return bounds;
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char delimiter) {
  std::vector<std::vector<std::string>> rows;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, delimiter,
      [&rows](std::span<const std::string_view> fields, size_t) {
        rows.emplace_back(fields.begin(), fields.end());
        return Status::OK();
      }));
  return rows;
}

Result<std::vector<std::vector<std::string>>> ReadCsvFile(
    const std::string& path, char delimiter) {
  TDAC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseCsv(text, delimiter);
}

Status WriteFile(const std::string& path, std::string_view text) {
  // Deliberately non-durable: the crash-recovery tests use this writer to
  // fabricate torn/corrupt files that AtomicWriteFile cannot produce.
  // Durable paths go through src/common/io.
  // lint: atomic-io-ok (non-durable by contract; tests fabricate torn files)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::IoError("write failed: " + path);
  // flush + close before the final stream-state check: buffered bytes only
  // reach the OS here, and a full disk surfaces as a failbit on close.
  out.flush();
  out.close();
  if (out.fail()) return Status::IoError("write failed on close: " + path);
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path + ": " +
                           std::strerror(errno));
  }
  auto fail = [fd, &path](const std::string& why) {
    ::close(fd);
    return Status::IoError("cannot read " + path + ": " + why);
  };
  // The string is sized from fstat, so only a regular file qualifies: a
  // directory or a FIFO reports a size that says nothing about its bytes.
  struct stat st;
  if (::fstat(fd, &st) != 0) return fail(std::strerror(errno));
  if (!S_ISREG(st.st_mode)) return fail("not a regular file");
  // Read straight into place, then on to EOF through `tail` in case the
  // file grew since fstat; a file that shrank is cut to what was read.
  std::string text(static_cast<size_t>(st.st_size), '\0');
  size_t used = 0;
  char tail[4096];
  for (;;) {
    const bool in_place = used < text.size();
    char* dst = in_place ? text.data() + used : tail;
    const size_t room = in_place ? text.size() - used : sizeof(tail);
    const ssize_t got = ::read(fd, dst, room);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return fail(std::strerror(errno));
    if (got == 0) break;
    if (!in_place) text.append(tail, static_cast<size_t>(got));
    used += static_cast<size_t>(got);
  }
  ::close(fd);
  text.resize(used);
  return text;
}

}  // namespace tdac
