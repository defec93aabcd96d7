#ifndef HDC_SERVE_ROW_READER_HPP
#define HDC_SERVE_ROW_READER_HPP

/// \file row_reader.hpp
/// \brief Line-oriented feature-row parsing for the serving front end.
///
/// A serving replica reads feature rows off a byte stream (stdin, a socket,
/// a file) and must reject malformed traffic with a *diagnosable* error —
/// line number, column context, reason — instead of crashing or silently
/// mispredicting.  `RowReader` parses CSV (`1.5, 2, -3e4`) or JSONL
/// (`[1.5, 2, -3e4]`) lines against the restored pipeline's declared
/// feature arity.  Empty lines are skipped, trailing CR (CRLF input) is
/// stripped, and every parse failure throws `RowError` naming the line.
/// Non-finite fields (`nan`, `inf`, `-inf`) are rejected like any other
/// malformed input: fed to the encoder they would silently corrupt every
/// prediction in the batch instead of failing loudly at the parse edge.
///
/// The reader never buffers beyond the current line, and never more than
/// kMaxLineBytes of it, so it serves unbounded streams in bounded memory.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::serve {

/// Outcome of parsing one numeric token: the two failure shapes carry
/// distinct diagnostics (a stray word vs a syntactically valid nan/inf).
enum class NumberParse : std::uint8_t {
  Ok,
  Malformed,
  NonFinite,
};

/// The one strict numeric-token policy every text front end shares: CSV
/// fields, JSONL array elements, `!adapt` targets and `--real` flag values
/// all accept exactly the same strings.  Surrounding spaces/tabs are
/// trimmed, a conventional leading `+` is taken, and the rest must be a
/// full, finite std::from_chars general-format number — so hex floats
/// ("0x1p3") and locale-dependent strtod extensions are rejected
/// everywhere, not just on the row path.
[[nodiscard]] NumberParse parse_strict_number(std::string_view text,
                                              double& value);

/// Raised on malformed feature rows; the message names the 1-based input
/// line and the reason, so a client can fix its producer.
class RowError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The longest line, in bytes before its newline, that a front end buffers
/// (stdin through RowReader::next/next_text, sockets in NetServer): a
/// longer line is answered like a malformed row, "line exceeds 1048576
/// bytes".
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Wire format of the incoming feature rows.
enum class RowFormat : std::uint8_t {
  /// One sample per line, comma-separated numeric fields.
  Csv,
  /// One sample per line, a JSON array of numbers (`[1.0, 2.5]`).
  Jsonl,
  /// One sample per line, the raw line *is* the sample (text pipelines).
  /// No numeric parsing happens: every byte after the CR strip belongs to
  /// the sample, so text rows cannot be malformed — only blank.
  Text,
};

/// Parses \p name ("csv" / "jsonl" / "text") into a RowFormat.
/// \throws std::invalid_argument on anything else.
[[nodiscard]] RowFormat parse_row_format(const std::string& name);

/// Streaming feature-row parser with a fixed arity contract.  Numeric
/// formats (Csv/Jsonl) parse into feature vectors; the Text format passes
/// raw lines through (next_text()/parse_text_line()).  The arity contract
/// mirrors io::Pipeline::num_features(): > 0 for numeric formats, exactly
/// 0 for Text.
class RowReader {
 public:
  /// \param in            Source stream; must outlive the reader.
  /// \param num_features  Required fields per row (> 0 for Csv/Jsonl, 0
  ///                      for Text).
  /// \throws std::invalid_argument if num_features disagrees with the
  /// format's arity contract.
  RowReader(std::istream& in, std::size_t num_features,
            RowFormat format = RowFormat::Csv);

  /// Stream-less reader for front ends that own their I/O (the socket
  /// server reads lines off a polled fd and feeds them to parse_line()).
  /// next() on such a reader throws std::logic_error.
  /// \throws std::invalid_argument as the stream constructor.
  explicit RowReader(std::size_t num_features,
                     RowFormat format = RowFormat::Csv);

  /// Reads the next non-empty line into \p out (resized to num_features()).
  /// Returns false on clean end of stream.  \throws RowError on wrong
  /// arity, non-numeric or non-finite fields, malformed JSON arrays, a line
  /// longer than kMaxLineBytes, or stream failure; std::logic_error on a
  /// Text reader (use next_text()).
  [[nodiscard]] bool next(std::vector<double>& out);

  /// Parses one already-read line as the next input line: counts it,
  /// strips a trailing CR, and returns false (without consuming arity)
  /// when it is blank.  \throws RowError exactly as next().
  [[nodiscard]] bool parse_line(const std::string& line,
                                std::vector<double>& out);

  /// Text-format twins of next()/parse_line(): the (CR-stripped) line is
  /// the sample.  Returns false on end of stream / a blank line.  \throws
  /// std::logic_error on a numeric-format reader; RowError on a line longer
  /// than kMaxLineBytes or on stream failure.
  [[nodiscard]] bool next_text(std::string& out);
  [[nodiscard]] bool parse_text_line(const std::string& line,
                                     std::string& out);

  [[nodiscard]] std::size_t num_features() const noexcept {
    return num_features_;
  }
  [[nodiscard]] RowFormat format() const noexcept { return format_; }

  /// Best-effort "would next() block?" probe for latency-bounded serving
  /// loops: true when the underlying stream reports no buffered characters
  /// (or the reader is stream-less / already at EOF).  A buffered partial
  /// line can still block, so this is a heuristic — callers use it to
  /// flush pending work *before* a probably-blocking read, never for
  /// correctness.
  [[nodiscard]] bool may_block() const;

  /// 1-based number of the last line read (0 before the first read).
  [[nodiscard]] std::size_t line_number() const noexcept { return line_; }

  /// Rows successfully parsed so far.
  [[nodiscard]] std::size_t rows_read() const noexcept { return rows_; }

 private:
  /// std::getline that stops one byte past kMaxLineBytes: false at end of
  /// stream; \throws RowError when the line is longer than that.
  bool read_line(std::string& line);
  void parse_csv(const std::string& line, std::vector<double>& out) const;
  void parse_jsonl(const std::string& line, std::vector<double>& out) const;
  [[noreturn]] void fail(const std::string& what) const;

  std::istream* in_;  ///< Null for the stream-less (parse_line-only) mode.
  std::size_t num_features_;
  RowFormat format_;
  std::size_t line_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_ROW_READER_HPP
