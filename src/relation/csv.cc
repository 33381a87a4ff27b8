#include "relation/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "util/str.h"

namespace pcbl {
namespace {

bool NeedsQuoting(std::string_view field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendQuoted(std::string& out, std::string_view field) {
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

// Splits CSV text into fields in one forward pass. A field is a view
// into the input; only when its bytes are not contiguous there (a quoted
// field with "" escapes, or text after its closing quote) is it copied,
// into a scratch buffer reused across fields. A view stays valid until
// the next call to Next().
//
// Record ends are LF, CRLF and lone CR outside quotes. A record left
// open by a trailing separator at the end of the input ends with one
// more empty field; nothing after the last record end is no record.
class FieldScanner {
 public:
  FieldScanner(std::string_view text, char separator)
      : text_(text), separator_(separator) {}

  // Advances to the next field. False at the end of the input, or when
  // the input is malformed (status() then says why).
  bool Next() {
    const size_t n = text_.size();
    quoted_ = false;
    if (pos_ == n) {
      if (at_record_start_) return false;
      field_ = {};
      return EndField(n);
    }
    size_t i = pos_;
    bool copied = false;
    if (text_[i] == '"') {
      quoted_ = true;
      const size_t begin = ++i;
      for (;;) {
        const size_t q = text_.find('"', i);
        if (q == std::string_view::npos) {
          return Fail("unterminated quoted field at end of input");
        }
        if (q + 1 < n && text_[q + 1] == '"') {  // "" escape: keep one quote
          if (!copied) scratch_.clear();
          scratch_.append(text_.substr(i, q + 1 - i));
          copied = true;
          i = q + 2;
          continue;
        }
        if (copied) scratch_.append(text_.substr(i, q - i));
        field_ = copied ? std::string_view(scratch_)
                        : text_.substr(begin, q - begin);
        i = q + 1;
        break;
      }
    }
    const size_t start = i;
    i = SkipUnquoted(i);
    if (i < n && text_[i] == '"') {
      return Fail(StrCat("stray quote inside unquoted field near offset ", i));
    }
    if (!quoted_) {
      field_ = text_.substr(start, i - start);
    } else if (i > start) {
      // Text after the closing quote belongs to the same field.
      if (!copied) scratch_.assign(field_);
      scratch_.append(text_.substr(start, i - start));
      field_ = scratch_;
    }
    return EndField(i);
  }

  std::string_view field() const { return field_; }
  // The field opened with a quote.
  bool quoted() const { return quoted_; }
  // The field is the last of its record.
  bool ends_record() const { return ends_record_; }
  const Status& status() const { return status_; }

 private:
  // The first index at or after `i` holding the separator, a quote, CR
  // or LF; text_.size() when there is none.
  size_t SkipUnquoted(size_t i) const {
    const size_t n = text_.size();
    for (; i < n; ++i) {
      const char c = text_[i];
      if (c == separator_ || c == '"' || c == '\r' || c == '\n') break;
    }
    return i;
  }

  // Consumes the delimiter at `i` (or the end of the input).
  bool EndField(size_t i) {
    const size_t n = text_.size();
    ends_record_ = i == n || text_[i] != separator_;
    at_record_start_ = ends_record_;
    if (ends_record_ && i + 1 < n && text_[i] == '\r' && text_[i + 1] == '\n') {
      ++i;
    }
    pos_ = std::min(i + 1, n);
    return true;
  }

  bool Fail(std::string message) {
    status_ = InvalidArgumentError(std::move(message));
    pos_ = text_.size();
    at_record_start_ = true;
    return false;
  }

  std::string_view text_;
  char separator_;
  size_t pos_ = 0;
  bool at_record_start_ = true;
  std::string_view field_;
  bool quoted_ = false;
  bool ends_record_ = false;
  std::string scratch_;
  Status status_;
};

// An upper bound on the records of `text`, short only for lone-CR line
// ends: every other record ends in a '\n'.
int64_t CountLineFeeds(std::string_view text) {
  int64_t count = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while ((p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
         nullptr) {
    ++count;
    ++p;
  }
  return count;
}

}  // namespace

Result<std::vector<std::vector<std::string>>> ParseCsvRecords(
    std::string_view text, const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  FieldScanner scanner(text, options.separator);
  while (scanner.Next()) {
    record.emplace_back(scanner.field());
    if (scanner.ends_record()) {
      records.push_back(std::move(record));
      record.clear();
    }
  }
  PCBL_RETURN_IF_ERROR(scanner.status());
  return records;
}

Result<Table> ReadCsvString(std::string_view text, const CsvOptions& options) {
  FieldScanner scanner(text, options.separator);
  std::vector<std::string> header;
  while (scanner.Next()) {
    header.emplace_back(scanner.field());
    if (scanner.ends_record()) break;
  }
  PCBL_RETURN_IF_ERROR(scanner.status());
  if (header.empty()) {
    return InvalidArgumentError("CSV input has no header record");
  }
  PCBL_ASSIGN_OR_RETURN(TableBuilder builder,
                        TableBuilder::Create(std::move(header)));
  const size_t width = static_cast<size_t>(builder.num_attributes());
  // A record of `width` fields takes at least `width` bytes (separators
  // and its line end), which caps the reservation at four bytes per
  // input byte however many line feeds are not record ends.
  builder.Reserve(std::min<int64_t>(
      CountLineFeeds(text), static_cast<int64_t>(text.size() / width) + 1));
  std::vector<ValueId> codes(width);
  size_t fields = 0;
  int64_t record = 1;
  while (scanner.Next()) {
    if (fields < width) {
      const std::string_view value = scanner.field();
      const bool missing =
          value.empty() ||
          (options.null_literal && !scanner.quoted() && value == "NULL");
      codes[fields] =
          missing ? kNullValue
                  : builder.InternValue(static_cast<int>(fields), value);
    }
    ++fields;
    if (!scanner.ends_record()) continue;
    if (fields != width) {
      return InvalidArgumentError(StrCat("record ", record, " has ", fields,
                                         " fields; expected ", width));
    }
    PCBL_RETURN_IF_ERROR(builder.AddRowCodes(codes));
    fields = 0;
    ++record;
  }
  PCBL_RETURN_IF_ERROR(scanner.status());
  return builder.Build();
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return IOError(StrCat("cannot open '", path, "' for reading"));
  }
  // One read into a buffer sized to the file; whatever the size did not
  // cover (a stream that cannot seek, or a file that grew) follows in
  // chunks.
  std::string text;
  if (in.seekg(0, std::ios::end)) {
    const std::streamoff size = in.tellg();
    in.seekg(0);
    if (size > 0) {
      text.resize(static_cast<size_t>(size));
      in.read(text.data(), size);
      text.resize(static_cast<size_t>(in.gcount()));
    }
  } else {
    in.clear();
  }
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return IOError(StrCat("error while reading '", path, "'"));
  }
  return ReadCsvString(text, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::string out;
  for (int a = 0; a < table.num_attributes(); ++a) {
    if (a > 0) out.push_back(options.separator);
    const std::string& name = table.schema().name(a);
    if (NeedsQuoting(name, options.separator)) {
      AppendQuoted(out, name);
    } else {
      out.append(name);
    }
  }
  out.push_back('\n');
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      if (a > 0) out.push_back(options.separator);
      ValueId v = table.value(r, a);
      if (IsNull(v)) continue;  // empty field
      const std::string& s = table.dictionary(a).GetString(v);
      if (s.empty() || s == "NULL" || NeedsQuoting(s, options.separator)) {
        AppendQuoted(out, s);
      } else {
        out.append(s);
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return IOError(StrCat("cannot open '", path, "' for writing"));
  }
  out << WriteCsvString(table, options);
  if (!out) {
    return IOError(StrCat("error while writing '", path, "'"));
  }
  return Status::Ok();
}

}  // namespace pcbl
