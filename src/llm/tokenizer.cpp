#include "llm/tokenizer.hpp"

#include <cctype>

namespace qcgen::llm {

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      // Dotted identifiers also contribute their components, so a query
      // for "runtime" matches "qiskit_ibm_runtime".
      if (current.find('.') != std::string::npos ||
          current.find('_') != std::string::npos) {
        std::string part;
        for (char c : current) {
          if (c == '.' || c == '_') {
            if (!part.empty()) tokens.push_back(part);
            part.clear();
          } else {
            part += c;
          }
        }
        if (!part.empty()) tokens.push_back(part);
      }
      current.clear();
    }
  };
  for (char raw : text) {
    const char c =
        static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.') {
      current += c;
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::size_t count_tokens(std::string_view text) { return tokenize(text).size(); }

}  // namespace qcgen::llm
