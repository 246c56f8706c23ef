#pragma once
// Word-level tokenizer used by the retrieval stack and by dataset-size
// accounting (the paper reports its training corpus in tokens: 3M raw,
// upsampled to 9M).

#include <string>
#include <string_view>
#include <vector>

namespace qcgen::llm {

/// Lower-cased word/symbol tokens. Identifiers keep underscores and dots
/// (module paths tokenise as single units plus their parts).
std::vector<std::string> tokenize(std::string_view text);

/// Token count of a text under tokenize().
std::size_t count_tokens(std::string_view text);

}  // namespace qcgen::llm
