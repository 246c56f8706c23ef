#pragma once
// Small string utilities: whitespace splitting and trimming, joining, and
// fixed-decimal formatting, used by the corpus chunker, the fail-point
// scenario parser, task prompts, circuit drawings and report tables.

#include <string>
#include <string_view>
#include <vector>

namespace qcgen {

/// Splits on any whitespace run; drops empty fields.
std::vector<std::string> split_whitespace(std::string_view s);
/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);
/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);
/// printf-style double formatting with fixed decimals.
std::string format_double(double v, int decimals);

}  // namespace qcgen
