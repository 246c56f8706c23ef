#include "common/table.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace qcgen {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table requires at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != headers_.size()) {
    throw InvalidArgumentError("Table row arity mismatch: expected " +
                               std::to_string(headers_.size()) + ", got " +
                               std::to_string(row.size()));
  }
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto hline = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      s += " " + row[c] + std::string(widths[c] - row[c].size(), ' ') + " |";
    }
    return s + "\n";
  };
  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += hline();
  out += render_row(headers_);
  out += hline();
  for (const auto& row : rows_) out += render_row(row);
  out += hline();
  return out;
}

std::string Table::to_markdown() const {
  std::string out;
  if (!title_.empty()) out += "### " + title_ + "\n\n";
  out += "| " + join(headers_, " | ") + " |\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) out += "---|";
  out += "\n";
  for (const auto& row : rows_) out += "| " + join(row, " | ") + " |\n";
  return out;
}

std::string bar_chart(const std::vector<std::pair<std::string, double>>& data,
                      double max_value, std::size_t width,
                      const std::string& unit) {
  double maxv = max_value;
  std::size_t label_width = 0;
  for (const auto& [label, v] : data) {
    maxv = std::max(maxv, v);
    label_width = std::max(label_width, label.size());
  }
  if (maxv <= 0.0) maxv = 1.0;
  std::string out;
  for (const auto& [label, v] : data) {
    const auto bars = static_cast<std::size_t>(
        std::llround(std::clamp(v / maxv, 0.0, 1.0) * static_cast<double>(width)));
    out += label + std::string(label_width - label.size(), ' ') + " | " +
           std::string(bars, '#') + std::string(width - bars, ' ') + " " +
           format_double(v, 2) + unit + "\n";
  }
  return out;
}

}  // namespace qcgen
