// RFC-4180-flavoured CSV reading/writing for Table.
//
// Supports quoted fields with embedded separators, escaped quotes ("")
// and newlines inside quotes; records end at LF, CRLF or a lone CR. The
// first record is the header (attribute names).
//
// Reading is one forward pass over the text. Each field is a view into
// the input (copied into a reused scratch buffer only when its bytes are
// not contiguous there, as in a quoted field with "" escapes) and is
// interned straight into its attribute's dictionary code; the codes go
// into column buffers reserved up front. No per-cell string is built.
//
// Missing values: an empty field, quoted or not, reads as missing; with
// CsvOptions::null_literal so does the *unquoted* literal NULL. A quoted
// "NULL" is the four-letter value, which is how WriteCsvString writes a
// NULL string so that it reads back as itself.
#ifndef PCBL_RELATION_CSV_H_
#define PCBL_RELATION_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "relation/table.h"
#include "util/status.h"

namespace pcbl {

/// CSV parsing/serialization options.
struct CsvOptions {
  char separator = ',';
  /// When true, the literal unquoted string NULL parses as missing.
  bool null_literal = true;
};

/// Parses CSV text (with header) into a Table.
Result<Table> ReadCsvString(std::string_view text,
                            const CsvOptions& options = {});

/// Reads a CSV file (with header) into a Table.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table to CSV text (with header). Fields containing the
/// separator, quotes, or newlines are quoted; NULLs render as empty fields.
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Splits one logical CSV text into records of fields, with the same
/// field splitting and error checks as ReadCsvString.
Result<std::vector<std::vector<std::string>>> ParseCsvRecords(
    std::string_view text, const CsvOptions& options = {});

}  // namespace pcbl

#endif  // PCBL_RELATION_CSV_H_
