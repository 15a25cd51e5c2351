#include "util/csv.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <system_error>

namespace roadrunner::util {

CsvWriter::CsvWriter(std::ostream& out, char separator)
    : out_{out}, sep_{separator} {}

namespace {
bool needs_quoting(std::string_view field, char sep) {
  return field.find_first_of(std::string{sep} + "\"\r\n") !=
         std::string_view::npos;
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& f : fields) {
    if (!first) out_ << sep_;
    first = false;
    if (needs_quoting(f, sep_)) {
      out_ << '"';
      for (char c : f) {
        if (c == '"') out_ << '"';
        out_ << c;
      }
      out_ << '"';
    } else {
      out_ << f;
    }
  }
  out_ << '\n';
}

std::string CsvWriter::field(double value) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) throw std::runtime_error{"CsvWriter: to_chars"};
  return std::string(buf, ptr);
}

std::string CsvWriter::field(std::uint64_t value) {
  return std::to_string(value);
}

std::vector<std::string> parse_csv_line(std::string_view line,
                                        char separator) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == separator) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // swallow trailing CR from CRLF files
    } else {
      current += c;
    }
  }
  if (in_quotes) throw std::runtime_error{"parse_csv_line: unterminated quote"};
  fields.push_back(std::move(current));
  return fields;
}

std::vector<std::vector<std::string>> read_csv(std::istream& in,
                                               char separator) {
  std::vector<std::vector<std::string>> rows;
  std::string record;
  std::string line;
  bool in_record = false;
  std::size_t quotes = 0;  // cumulative '"' count in the current record
  while (std::getline(in, line)) {
    if (!in_record) {
      if (line.empty() || line == "\r") continue;
      record = line;
      in_record = true;
      quotes = 0;
    } else {
      // Odd quote count so far: we are inside a quoted field and getline
      // consumed an embedded newline — restore it and keep accumulating.
      record += '\n';
      record += line;
    }
    for (const char c : line) quotes += c == '"' ? 1 : 0;
    if (quotes % 2 == 0) {
      rows.push_back(parse_csv_line(record, separator));
      in_record = false;
    }
  }
  // Trailing open quote: let the parser raise its usual error.
  if (in_record) rows.push_back(parse_csv_line(record, separator));
  return rows;
}

}  // namespace roadrunner::util
