// Text helpers shared by every CLI, report writer and bench: one JSON
// string escape, one hex formatter, one strict parser each for counts and
// reals, one whole-file reader.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace spider {

/// Escape `s` for a JSON string literal: quote, backslash, \n, \t, \r and
/// every other byte below 0x20 (as \u00XX), so the output is always valid
/// JSON. Bytes >= 0x20 pass through unchanged.
std::string json_escape(std::string_view s);

/// "0x" followed by exactly 16 lowercase hex digits.
std::string to_hex(std::uint64_t v);

/// Decimal digits only (no sign, space or suffix), at least one, and the
/// value must fit in 64 bits. On failure returns false and leaves `out`
/// untouched.
bool parse_count(std::string_view text, std::uint64_t& out);

/// A real number in strtod syntax that spans the whole of `text` and is
/// finite: rejects empty input, trailing junk, nan, inf and out-of-range
/// magnitudes such as 1e309. On failure returns false and leaves `out`
/// untouched.
bool parse_finite(std::string_view text, double& out);

/// The whole file as bytes, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace spider
