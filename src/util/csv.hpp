// Minimal CSV writing/reading used by the metrics registry (export) and the
// mobility trace-file loader (import). RFC-4180-style quoting for fields
// containing separators, quotes, or newlines.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace roadrunner::util {

/// Streams rows to an std::ostream. The writer does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char separator = ',');

  /// Writes one row, quoting fields as needed, terminated by '\n'.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with enough digits to round-trip.
  static std::string field(double value);
  static std::string field(std::uint64_t value);

 private:
  std::ostream& out_;
  char sep_;
};

/// Parses one CSV line into fields, honouring double-quote escaping.
/// Throws std::runtime_error on unterminated quotes.
std::vector<std::string> parse_csv_line(std::string_view line,
                                        char separator = ',');

/// Reads a whole CSV stream into rows (skips completely empty lines).
/// Quoted fields may span lines: embedded '\n' round-trips through
/// CsvWriter (embedded '\r' is stripped on read, as in CRLF handling).
std::vector<std::vector<std::string>> read_csv(std::istream& in,
                                               char separator = ',');

}  // namespace roadrunner::util
