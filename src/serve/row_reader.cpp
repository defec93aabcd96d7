#include "hdc/serve/row_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>

namespace hdc::serve {

namespace {

bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

bool is_blank(const std::string& line) noexcept {
  for (const char c : line) {
    if (!is_space(c)) {
      return false;
    }
  }
  return true;
}

/// Parses one numeric field spanning [begin, end) of \p line (the caller
/// owns the diagnostic, which needs the line number).
NumberParse parse_field(const std::string& line, std::size_t begin,
                        std::size_t end, double& value) {
  return parse_strict_number(
      std::string_view(line).substr(begin, end - begin), value);
}

}  // namespace

NumberParse parse_strict_number(std::string_view text, double& value) {
  // std::from_chars rather than strtod: the wire format must not depend on
  // the host application's LC_NUMERIC locale (and strtod's hex-float
  // extension must not leak into any accepting front end).  from_chars
  // happily accepts "nan" and "inf"; those are rejected here — a non-finite
  // value fed onward corrupts results silently instead of failing at the
  // parse edge.
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) {
    ++begin;
  }
  while (end > begin && is_space(text[end - 1])) {
    --end;
  }
  if (begin < end && text[begin] == '+') {
    ++begin;  // from_chars takes '-' but not the conventional '+'
    if (begin < end && text[begin] == '-') {
      return NumberParse::Malformed;
    }
  }
  if (begin == end) {
    return NumberParse::Malformed;
  }
  const auto [parsed_end, error] =
      std::from_chars(text.data() + begin, text.data() + end, value);
  if (error == std::errc::result_out_of_range &&
      parsed_end == text.data() + end) {
    // "1e999" parses but overflows to +-inf: same poison, same rejection.
    return NumberParse::NonFinite;
  }
  if (error != std::errc{} || parsed_end != text.data() + end) {
    return NumberParse::Malformed;
  }
  return std::isfinite(value) ? NumberParse::Ok : NumberParse::NonFinite;
}

RowFormat parse_row_format(const std::string& name) {
  if (name == "csv") {
    return RowFormat::Csv;
  }
  if (name == "jsonl") {
    return RowFormat::Jsonl;
  }
  if (name == "text") {
    return RowFormat::Text;
  }
  throw std::invalid_argument("unknown row format '" + name +
                              "' (expected csv, jsonl or text)");
}

namespace {

/// Numeric formats need a positive arity; Text rows have none (matching
/// io::Pipeline::num_features() == 0 for text pipelines), so the two
/// mistakes — a text reader on a numeric pipeline or vice versa — both
/// fail at construction.
void require_arity(std::size_t num_features, RowFormat format) {
  if (format == RowFormat::Text) {
    if (num_features != 0) {
      throw std::invalid_argument(
          "RowReader: text format takes num_features == 0 (rows are raw "
          "lines, not feature vectors)");
    }
  } else if (num_features == 0) {
    throw std::invalid_argument("RowReader: num_features must be > 0");
  }
}

}  // namespace

RowReader::RowReader(std::istream& in, std::size_t num_features,
                     RowFormat format)
    : in_(&in), num_features_(num_features), format_(format) {
  require_arity(num_features, format);
}

RowReader::RowReader(std::size_t num_features, RowFormat format)
    : in_(nullptr), num_features_(num_features), format_(format) {
  require_arity(num_features, format);
}

void RowReader::fail(const std::string& what) const {
  throw RowError("row " + std::to_string(line_) + ": " + what);
}

bool RowReader::parse_line(const std::string& line, std::vector<double>& out) {
  if (format_ == RowFormat::Text) {
    throw std::logic_error(
        "RowReader::parse_line: text-format reader (use parse_text_line)");
  }
  ++line_;
  // CRLF producers (and text-mode Windows pipes) leave a trailing CR; the
  // copy is taken only on that path.
  const std::string* text = &line;
  std::string stripped;
  if (!line.empty() && line.back() == '\r') {
    stripped.assign(line, 0, line.size() - 1);
    text = &stripped;
  }
  if (is_blank(*text)) {
    return false;
  }
  out.resize(num_features_);
  if (format_ == RowFormat::Csv) {
    parse_csv(*text, out);
  } else {
    parse_jsonl(*text, out);
  }
  ++rows_;
  return true;
}

bool RowReader::parse_text_line(const std::string& line, std::string& out) {
  if (format_ != RowFormat::Text) {
    throw std::logic_error(
        "RowReader::parse_text_line: numeric-format reader (use "
        "parse_line)");
  }
  ++line_;
  out = line;
  if (!out.empty() && out.back() == '\r') {
    out.pop_back();
  }
  if (is_blank(out)) {
    return false;
  }
  ++rows_;
  return true;
}

bool RowReader::read_line(std::string& line) {
  line.clear();
  char piece[4096];
  while (true) {
    // Each piece stores at most what keeps the line within one byte past
    // the bound, so an over-long line is never buffered whole.
    const std::size_t room = kMaxLineBytes + 1 - line.size();
    const auto limit = static_cast<std::streamsize>(
        std::min(sizeof(piece), room + 1));
    in_->getline(piece, limit);
    const auto got = static_cast<std::size_t>(in_->gcount());
    const bool full = in_->fail() && !in_->eof() && !in_->bad();
    // A found newline is extracted and counted in gcount, not stored.
    const bool newline = !in_->fail() && !in_->eof();
    line.append(piece, newline ? got - 1 : got);
    if (line.size() > kMaxLineBytes) {
      ++line_;
      fail("line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
    }
    if (!full) {
      return newline || got > 0 || !line.empty();
    }
    in_->clear(in_->rdstate() & ~std::ios::failbit);
  }
}

bool RowReader::next(std::vector<double>& out) {
  if (in_ == nullptr) {
    throw std::logic_error(
        "RowReader::next: stream-less reader (use parse_line)");
  }
  std::string line;
  while (read_line(line)) {
    if (parse_line(line, out)) {
      return true;
    }
  }
  if (in_->bad()) {
    fail("stream read failure");
  }
  return false;
}

bool RowReader::next_text(std::string& out) {
  if (in_ == nullptr) {
    throw std::logic_error(
        "RowReader::next_text: stream-less reader (use parse_text_line)");
  }
  std::string line;
  while (read_line(line)) {
    if (parse_text_line(line, out)) {
      return true;
    }
  }
  if (in_->bad()) {
    fail("stream read failure");
  }
  return false;
}

bool RowReader::may_block() const {
  return in_ == nullptr || !in_->good() || in_->rdbuf() == nullptr ||
         in_->rdbuf()->in_avail() <= 0;
}

void RowReader::parse_csv(const std::string& line,
                          std::vector<double>& out) const {
  std::size_t begin = 0;
  std::size_t field = 0;
  while (true) {
    const std::size_t comma = line.find(',', begin);
    const std::size_t end = comma == std::string::npos ? line.size() : comma;
    if (field >= num_features_) {
      fail("expected " + std::to_string(num_features_) +
           " fields, got more (extra field starts at column " +
           std::to_string(begin + 1) + ")");
    }
    switch (parse_field(line, begin, end, out[field])) {
      case NumberParse::Ok:
        break;
      case NumberParse::Malformed:
        fail("field " + std::to_string(field + 1) + " ('" +
             line.substr(begin, end - begin) + "') is not a number");
      case NumberParse::NonFinite:
        fail("field " + std::to_string(field + 1) + " ('" +
             line.substr(begin, end - begin) +
             "') is not finite (nan/inf rejected)");
    }
    ++field;
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  if (field != num_features_) {
    fail("expected " + std::to_string(num_features_) + " fields, got " +
         std::to_string(field));
  }
}

void RowReader::parse_jsonl(const std::string& line,
                            std::vector<double>& out) const {
  std::size_t at = 0;
  const auto skip_spaces = [&] {
    while (at < line.size() && is_space(line[at])) {
      ++at;
    }
  };
  skip_spaces();
  if (at >= line.size() || line[at] != '[') {
    fail("JSONL rows must be arrays of numbers ('[v, ...]')");
  }
  ++at;
  std::size_t field = 0;
  while (true) {
    skip_spaces();
    if (at < line.size() && line[at] == ']' && field == 0) {
      break;  // `[]` — caught as wrong arity below.
    }
    // A number token runs until the next delimiter.
    const std::size_t begin = at;
    while (at < line.size() && line[at] != ',' && line[at] != ']') {
      ++at;
    }
    if (at >= line.size()) {
      fail("unterminated JSON array (missing ']')");
    }
    if (field >= num_features_) {
      fail("expected " + std::to_string(num_features_) +
           " fields, got more (extra field starts at column " +
           std::to_string(begin + 1) + ")");
    }
    switch (parse_field(line, begin, at, out[field])) {
      case NumberParse::Ok:
        break;
      case NumberParse::Malformed:
        fail("field " + std::to_string(field + 1) + " ('" +
             line.substr(begin, at - begin) + "') is not a number");
      case NumberParse::NonFinite:
        fail("field " + std::to_string(field + 1) + " ('" +
             line.substr(begin, at - begin) +
             "') is not finite (nan/inf rejected)");
    }
    ++field;
    if (line[at] == ']') {
      break;
    }
    ++at;  // consume the comma
  }
  ++at;  // consume the ']'
  skip_spaces();
  if (at != line.size()) {
    fail("trailing bytes after the JSON array (column " +
         std::to_string(at + 1) + ")");
  }
  if (field != num_features_) {
    fail("expected " + std::to_string(num_features_) + " fields, got " +
         std::to_string(field));
  }
}

}  // namespace hdc::serve
