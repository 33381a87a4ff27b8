// Differential and hostile-input tests for the CSV reader.
//
// The oracle below is the reader's earlier two-stage design, kept here
// as a reference: split the whole text into records of owned strings,
// then intern each record row by row through TableBuilder. The one
// deliberate difference is the quoted-NULL rule: the oracle remembers
// whether each field was quoted, so a quoted "NULL" reads as a value
// (only the unquoted literal is missing), as csv.h documents. Every
// generated or truncated input must get the same verdict from both
// readers, and on success tables with equal fingerprints.
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "pattern/service_registry.h"
#include "relation/csv.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

struct OracleField {
  std::string value;
  bool quoted = false;
};
using OracleRecord = std::vector<OracleField>;

Result<std::vector<OracleRecord>> OracleParseRecords(std::string_view text,
                                                     const CsvOptions& options) {
  std::vector<OracleRecord> records;
  OracleRecord record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_field_in_record = false;

  auto end_field = [&]() {
    record.push_back(OracleField{field, field_was_quoted});
    field.clear();
    field_was_quoted = false;
    any_field_in_record = true;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    any_field_in_record = false;
  };

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
      continue;
    }
    if (c == '"') {
      if (!field.empty()) {
        return InvalidArgumentError(
            StrCat("stray quote inside unquoted field near offset ", i));
      }
      in_quotes = true;
      field_was_quoted = true;
      ++i;
    } else if (c == options.separator) {
      end_field();
      ++i;
    } else if (c == '\r') {
      if (i + 1 < n && text[i + 1] == '\n') ++i;
      end_record();
      ++i;
    } else if (c == '\n') {
      end_record();
      ++i;
    } else {
      field.push_back(c);
      ++i;
    }
  }
  if (in_quotes) {
    return InvalidArgumentError("unterminated quoted field at end of input");
  }
  if (!field.empty() || field_was_quoted || any_field_in_record) {
    end_record();
  }
  return records;
}

Result<Table> OracleReadCsv(std::string_view text, const CsvOptions& options) {
  PCBL_ASSIGN_OR_RETURN(auto records, OracleParseRecords(text, options));
  if (records.empty()) {
    return InvalidArgumentError("CSV input has no header record");
  }
  std::vector<std::string> names;
  for (const OracleField& f : records[0]) names.push_back(f.value);
  PCBL_ASSIGN_OR_RETURN(TableBuilder builder,
                        TableBuilder::Create(std::move(names)));
  for (size_t r = 1; r < records.size(); ++r) {
    const OracleRecord& rec = records[r];
    if (static_cast<int>(rec.size()) != builder.num_attributes()) {
      return InvalidArgumentError(
          StrCat("record ", r, " has ", rec.size(), " fields; expected ",
                 builder.num_attributes()));
    }
    std::vector<ValueId> codes(rec.size());
    for (size_t a = 0; a < rec.size(); ++a) {
      const OracleField& f = rec[a];
      const bool missing = f.value.empty() || (options.null_literal &&
                                               !f.quoted && f.value == "NULL");
      codes[a] = missing ? kNullValue
                         : builder.InternValue(static_cast<int>(a), f.value);
    }
    PCBL_RETURN_IF_ERROR(builder.AddRowCodes(codes));
  }
  return builder.Build();
}

// Makes control characters visible in failure messages.
std::string Visible(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void ExpectReadersAgree(std::string_view text, const CsvOptions& options) {
  SCOPED_TRACE(StrCat("input \"", Visible(text), "\" separator '",
                      std::string(1, options.separator),
                      "' null_literal=", options.null_literal));
  Result<Table> expected = OracleReadCsv(text, options);
  Result<Table> actual = ReadCsvString(text, options);
  ASSERT_EQ(actual.ok(), expected.ok())
      << "reader: " << actual.status() << "; oracle: " << expected.status();
  if (actual.ok()) {
    EXPECT_EQ(FingerprintTable(*actual), FingerprintTable(*expected));
    for (int a = 0; a < expected->num_attributes(); ++a) {
      EXPECT_EQ(actual->NullCount(a), expected->NullCount(a)) << "attr " << a;
    }
  }

  Result<std::vector<std::vector<std::string>>> records =
      ParseCsvRecords(text, options);
  Result<std::vector<OracleRecord>> oracle_records =
      OracleParseRecords(text, options);
  ASSERT_EQ(records.ok(), oracle_records.ok());
  if (records.ok()) {
    ASSERT_EQ(records->size(), oracle_records->size());
    for (size_t r = 0; r < records->size(); ++r) {
      std::vector<std::string> values;
      for (const OracleField& f : (*oracle_records)[r]) {
        values.push_back(f.value);
      }
      EXPECT_EQ((*records)[r], values) << "record " << r;
    }
  }
}

// One random cell, written as it would appear in the file. Mostly
// well-formed; now and then a stray or unterminated quote.
std::string RandomCell(Rng& rng, char sep) {
  static const char* const kPlain[] = {
      "a", "bb", "x y", "NULL", "0", "-1.5", "\xc3\xbcmlaut",
      "a-much-longer-cell-value-past-sixteen-bytes", "null", "NULLNULL"};
  static const char* const kQuoted[] = {
      "",      "NULL", "a",        "say \"\"hi\"\"", "line\nbreak",
      "cr\rx", "x\r\ny", "\"\"",   "\"\"\"\"",       "bb"};
  const uint32_t kind = rng.UniformInt(100);
  if (kind < 40) return kPlain[rng.UniformInt(std::size(kPlain))];
  if (kind < 52) return "";
  if (kind < 80) {
    return StrCat("\"", kQuoted[rng.UniformInt(std::size(kQuoted))], "\"");
  }
  if (kind < 88) return StrCat("\"x", std::string(1, sep), "y\"");
  if (kind < 93) return "\"ab\"cd";  // text after the closing quote
  if (kind < 96) return "ab\"c";     // stray quote
  if (kind < 98) return "\"\"x\"";   // stray quote after a quoted field
  return "\"open";                   // unterminated unless closed later
}

std::string RandomCsv(Rng& rng, const CsvOptions& options) {
  static const char* const kLineEnds[] = {"\n", "\r\n", "\r"};
  const char sep = options.separator;
  const int width = 1 + static_cast<int>(rng.UniformInt(4));
  std::string text;
  for (int a = 0; a < width; ++a) {
    if (a > 0) text.push_back(sep);
    text += rng.UniformInt(5) == 0 ? StrCat("\"c", a, "\"") : StrCat("c", a);
  }
  const int rows = static_cast<int>(rng.UniformInt(12));
  for (int r = 0; r < rows; ++r) {
    text += kLineEnds[rng.UniformInt(3)];
    int fields = width;
    if (rng.UniformInt(20) == 0) fields += rng.UniformInt(2) == 0 ? -1 : 1;
    for (int f = 0; f < fields; ++f) {
      if (f > 0) text.push_back(sep);
      text += RandomCell(rng, sep);
    }
  }
  if (rng.UniformInt(3) != 0) text += kLineEnds[rng.UniformInt(3)];
  if (rng.UniformInt(8) == 0) text += "\n";  // trailing blank line
  return text;
}

TEST(CsvDifferentialTest, RandomInputsMatchOracle) {
  Rng rng(20211);
  int parsed = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    CsvOptions options;
    options.separator = rng.UniformInt(2) == 0 ? ',' : ';';
    options.null_literal = rng.UniformInt(2) == 0;
    const std::string text = RandomCsv(rng, options);
    ExpectReadersAgree(text, options);
    if (HasFatalFailure()) return;
    parsed += OracleReadCsv(text, options).ok() ? 1 : 0;
  }
  // The generator must exercise both verdicts, not just one.
  EXPECT_GT(parsed, 1000);
  EXPECT_LT(parsed, 3900);
}

TEST(CsvDifferentialTest, EveryPrefixOfGoldenMatchesOracle) {
  const std::string golden =
      "name,\"note, quoted\",n\r\n"
      "rex,\"he said \"\"hi\"\"\",NULL\n"
      "max,\"two\nlines\",\"NULL\"\r"
      ",\"\",3\n"
      "\"a\"b,plain,\n";
  for (size_t len = 0; len <= golden.size(); ++len) {
    for (bool null_literal : {true, false}) {
      CsvOptions options;
      options.null_literal = null_literal;
      ExpectReadersAgree(std::string_view(golden).substr(0, len), options);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(CsvDifferentialTest, HostileShapesMatchOracle) {
  const char* const kInputs[] = {
      "",         "\n",          "\r\n",         "a",         "a,",
      ",",        "a\n\n",       "a\n\n\n",      "a\r\rb",    "\"",
      "\"\"",     "\"\"\"",      "\"\"\"\"",     "a\n\"",     "a\n\"\"x\"",
      "a\nb\"",   "a,b\n1,2,3",  "a,b\n1",       "a,a\n1,2",  "a\n\"x\"\"",
      "a\nx\r\n", "a;b\n1;2\n",  "a\n\"\n\"\n",  "a\r\n\r\n", "a\n\"NULL\"\n",
  };
  for (const char* input : kInputs) {
    for (char sep : {',', ';'}) {
      for (bool null_literal : {true, false}) {
        CsvOptions options;
        options.separator = sep;
        options.null_literal = null_literal;
        ExpectReadersAgree(input, options);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The generator fixes each dictionary's ids in its spec's value order,
// while a CSV reader assigns them in first-seen order; so the round trip
// is compared with the generator's rows re-encoded in first-seen order.
TEST(CsvDifferentialTest, GeneratedCompasRoundTripsToSameFingerprint) {
  Result<Table> compas = workload::MakeCompas(200000, 2021);
  ASSERT_TRUE(compas.ok()) << compas.status();
  std::vector<std::string> names;
  for (int a = 0; a < compas->num_attributes(); ++a) {
    names.push_back(compas->schema().name(a));
  }
  Result<TableBuilder> builder = TableBuilder::Create(names);
  ASSERT_TRUE(builder.ok());
  std::vector<std::string> row(names.size());
  for (int64_t r = 0; r < compas->num_rows(); ++r) {
    for (int a = 0; a < compas->num_attributes(); ++a) {
      row[static_cast<size_t>(a)] =
          IsNull(compas->value(r, a)) ? "" : compas->ValueString(r, a);
    }
    ASSERT_TRUE(builder->AddRow(row).ok());
  }
  const TableFingerprint first_seen = FingerprintTable(builder->Build());

  const std::string text = WriteCsvString(*compas);
  Result<Table> back = ReadCsvString(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(FingerprintTable(*back), first_seen);
  Result<Table> oracle = OracleReadCsv(text, CsvOptions{});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(FingerprintTable(*oracle), first_seen);
}

}  // namespace
}  // namespace pcbl
