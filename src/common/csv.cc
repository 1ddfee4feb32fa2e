#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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
                     const CsvRowFn& on_row) {
  // fields[0..count] hold the row in progress, fields[count] being the open
  // field. The strings are reused from row to row, so a steady-state row
  // allocates nothing.
  std::vector<std::string> fields(1);
  size_t count = 0;
  bool in_quotes = false;
  bool field_started = false;
  size_t line = 1;            // physical line currently being scanned
  size_t row_start_line = 1;  // line on which the in-progress row began
  size_t quote_open_line = 1;
  size_t i = 0;
  const size_t n = text.size();
  auto end_field = [&] {
    if (++count == fields.size()) fields.emplace_back();
    fields[count].clear();
    field_started = false;
  };
  auto end_row = [&] {
    Status status = on_row(
        std::span<const std::string>(fields.data(), count + 1), row_start_line);
    count = 0;
    fields[0].clear();
    field_started = false;
    return status;
  };
  auto is_special = [delimiter](char c) {
    return c == delimiter || c == '"' || c == '\r' || c == '\n';
  };
  while (i < n) {
    std::string& field = fields[count];
    const char c = text[i];
    if (in_quotes) {
      // Copy the run up to the next quote at once; quoted fields may span
      // physical lines.
      const size_t quote = text.find('"', i);
      const size_t stop = quote == std::string_view::npos ? n : quote;
      line += static_cast<size_t>(
          std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                     text.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
      field.append(text, i, stop - i);
      i = stop;
      if (i == n) break;
      if (i + 1 < n && text[i + 1] == '"') {
        field += '"';
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
      // copy the run up to the next special character at once.
      size_t stop = i + 1;
      while (stop < n && !is_special(text[stop])) ++stop;
      field.append(text, i, stop - i);
      field_started = true;
      i = stop;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        "CSV ends inside a quoted field (quote opened on line " +
        std::to_string(quote_open_line) + ")");
  }
  if (field_started || count > 0) return end_row();
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text,
                                                       char delimiter) {
  std::vector<std::vector<std::string>> rows;
  TDAC_RETURN_NOT_OK(ForEachCsvRow(
      text, delimiter, [&rows](std::span<const std::string> fields, size_t) {
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
