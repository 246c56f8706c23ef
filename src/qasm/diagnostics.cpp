#include "qasm/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace qcgen::qasm {

std::string_view diag_code_name(DiagCode code) {
  switch (code) {
    case DiagCode::kLexError: return "lex-error";
    case DiagCode::kParseError: return "parse-error";
    case DiagCode::kMissingQiskitImport: return "missing-qiskit-import";
    case DiagCode::kUnknownImport: return "unknown-import";
    case DiagCode::kDeprecatedImport: return "deprecated-import";
    case DiagCode::kUnknownGate: return "unknown-gate";
    case DiagCode::kDeprecatedGateAlias: return "deprecated-gate-alias";
    case DiagCode::kWrongArity: return "wrong-arity";
    case DiagCode::kWrongParamCount: return "wrong-param-count";
    case DiagCode::kQubitOutOfRange: return "qubit-out-of-range";
    case DiagCode::kClbitOutOfRange: return "clbit-out-of-range";
    case DiagCode::kDuplicateQubit: return "duplicate-qubit";
    case DiagCode::kNoMeasurement: return "no-measurement";
    case DiagCode::kConditionOnUnwrittenClbit:
      return "condition-on-unwritten-clbit";
    case DiagCode::kUnusedQubit: return "unused-qubit";
    case DiagCode::kEmptyCircuit: return "empty-circuit";
    case DiagCode::kDuplicateCircuitName: return "duplicate-circuit-name";
    case DiagCode::kNoCircuit: return "no-circuit";
    case DiagCode::kGateAfterMeasurement: return "gate-after-measurement";
    case DiagCode::kDoubleMeasurement: return "double-measurement";
    case DiagCode::kConditionOnStaleClbit:
      return "condition-on-stale-clbit";
    case DiagCode::kDeadOperation: return "dead-operation";
    case DiagCode::kRedundantGatePair: return "redundant-gate-pair";
    case DiagCode::kDeterministicMeasurement:
      return "deterministic-measurement";
    case DiagCode::kUnreachableConditional: return "unreachable-conditional";
    case DiagCode::kRedundantReset: return "redundant-reset";
    case DiagCode::kTrivialControlledGate: return "trivial-gate";
    case DiagCode::kNonAdjacentQubits: return "non-adjacent-qubits";
    case DiagCode::kNonPreservingFixIt: return "non-preserving-fixit";
    case DiagCode::kFixItConflict: return "fixit-conflict";
    case DiagCode::kQubitReuse: return "qubit-reuse";
    case DiagCode::kIdleQubitHotspot: return "idle-qubit-hotspot";
    case DiagCode::kUncomputedAncilla: return "uncomputed-ancilla";
    case DiagCode::kDepthDominatingLayer: return "depth-dominating-layer";
  }
  return "?";
}

bool is_syntactic(DiagCode code) {
  switch (code) {
    case DiagCode::kLexError:
    case DiagCode::kParseError:
    case DiagCode::kMissingQiskitImport:
    case DiagCode::kUnknownImport:
    case DiagCode::kDeprecatedImport:
    case DiagCode::kUnknownGate:
    case DiagCode::kDeprecatedGateAlias:
    case DiagCode::kWrongArity:
    case DiagCode::kWrongParamCount:
      return true;
    default:
      return false;
  }
}

bool has_errors(const std::vector<Diagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

namespace {

/// Byte offsets of line starts; lines[i] is the offset of 1-based line
/// i+1. A trailing entry holds source.size() so [lines[i], lines[i+1])
/// spans line i+1 including its newline.
std::vector<std::size_t> line_starts(std::string_view source) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') starts.push_back(i + 1);
  }
  starts.push_back(source.size());
  return starts;
}

/// Ensures replacement text ends with a newline so patched lines stay
/// line-shaped (empty replacements stay empty: that is a deletion).
std::string normalized_replacement(const std::string& replacement) {
  if (replacement.empty() || replacement.back() == '\n') return replacement;
  return replacement + "\n";
}

}  // namespace

std::optional<std::string> apply_fixit(std::string_view source,
                                       const FixIt& fix) {
  if (fix.line_begin < 1) return std::nullopt;
  const auto starts = line_starts(source);
  const auto line_count = static_cast<int>(starts.size()) - 1;
  if (fix.is_insertion()) {
    // Insertion before line_begin; inserting after the last line is
    // allowed (line_begin == line_count + 1).
    if (fix.line_begin > line_count + 1) return std::nullopt;
    const std::size_t at = fix.line_begin > line_count
                               ? source.size()
                               : starts[static_cast<std::size_t>(
                                     fix.line_begin - 1)];
    std::string out(source);
    out.insert(at, normalized_replacement(fix.replacement));
    return out;
  }
  if (fix.line_end > line_count) return std::nullopt;
  const std::size_t begin =
      starts[static_cast<std::size_t>(fix.line_begin - 1)];
  const std::size_t end = starts[static_cast<std::size_t>(fix.line_end)];
  if (!fix.guard.empty() &&
      source.substr(begin, end - begin).find(fix.guard) ==
          std::string_view::npos) {
    return std::nullopt;
  }
  std::string out;
  out.reserve(source.size());
  out.append(source.substr(0, begin));
  out.append(normalized_replacement(fix.replacement));
  out.append(source.substr(end));
  return out;
}

std::string FixItConflict::to_string() const {
  const auto range = [](const FixIt& f) {
    if (f.is_insertion()) {
      return "insertion before line " + std::to_string(f.line_begin);
    }
    return f.line_begin == f.line_end
               ? "line " + std::to_string(f.line_begin)
               : "lines " + std::to_string(f.line_begin) + "-" +
                     std::to_string(f.line_end);
  };
  return "fix-it for " + range(rejected) +
         " conflicts with already-applied fix-it for " + range(winner);
}

namespace {

/// True when `fix` touches source lines already claimed by `applied`
/// (both in original-source coordinates, which bottom-up application
/// keeps valid for every not-yet-applied fix-it).
bool conflicts_with(const FixIt& applied, const FixIt& fix) {
  if (fix.is_insertion()) {
    // An insertion before line L sits between lines L-1 and L; it lands
    // inside a replaced range [b, e] iff b < L <= e. Two insertions
    // never collide (both apply, in deterministic order).
    if (applied.is_insertion()) return false;
    return applied.line_begin < fix.line_begin &&
           fix.line_begin <= applied.line_end;
  }
  if (applied.is_insertion()) {
    return fix.line_begin < applied.line_begin &&
           applied.line_begin <= fix.line_end;
  }
  return applied.line_begin <= fix.line_end &&
         fix.line_begin <= applied.line_end;
}

}  // namespace

FixItResult apply_fixits(std::string_view source,
                         const std::vector<Diagnostic>& diags,
                         FixItConflictPolicy policy) {
  std::vector<const FixIt*> fixes;
  for (const Diagnostic& d : diags) {
    if (d.fixit.has_value()) fixes.push_back(&*d.fixit);
  }
  // Bottom-up so earlier patches don't shift later line numbers; stable
  // on equal lines, so diagnostic order breaks ties deterministically.
  std::stable_sort(fixes.begin(), fixes.end(),
                   [](const FixIt* a, const FixIt* b) {
                     return a->line_begin > b->line_begin;
                   });
  FixItResult result;
  result.source = std::string(source);
  std::vector<const FixIt*> claimed;
  for (const FixIt* fix : fixes) {
    const FixIt* winner = nullptr;
    for (const FixIt* earlier : claimed) {
      if (conflicts_with(*earlier, *fix)) {
        winner = earlier;
        break;
      }
    }
    if (winner != nullptr) {
      FixItConflict conflict{*winner, *fix};
      if (policy == FixItConflictPolicy::kFatal) {
        std::fputs(("fatal fix-it conflict: " + conflict.to_string() + "\n")
                       .c_str(),
                   stderr);
        std::abort();
      }
      result.conflicts.push_back(std::move(conflict));
      continue;
    }
    if (auto patched = apply_fixit(result.source, *fix)) {
      result.source = std::move(*patched);
      ++result.applied;
      claimed.push_back(fix);
    }
  }
  return result;
}

std::string format_error_trace(const std::vector<Diagnostic>& diags) {
  // One allocation covers the usual trace: each line is its message plus
  // a header and, with a fix-it, a second line around the replacement.
  std::size_t estimate = 0;
  for (const Diagnostic& d : diags) {
    estimate += d.message.size() + 64;
    if (d.fixit.has_value()) estimate += d.fixit->replacement.size() + 64;
  }
  std::string out;
  out.reserve(estimate);
  const auto append_lines = [&out](std::string_view lines, int begin,
                                   int end) {
    out += lines;
    out += std::to_string(begin);
    if (end != begin) {
      out += '-';
      out += std::to_string(end);
    }
  };
  for (const Diagnostic& d : diags) {
    out += d.severity == Severity::kError ? "error" : "warning";
    out += '[';
    out += diag_code_name(d.code);
    out += ']';
    if (d.line > 0) {
      out += " at line ";
      out += std::to_string(d.line);
      if (d.column > 0) {
        out += ':';
        out += std::to_string(d.column);
      }
    }
    out += ": ";
    out += d.message;
    out += '\n';
    if (d.fixit.has_value()) {
      const FixIt& fix = *d.fixit;
      out += "  fixit: ";
      const bool one_line = fix.line_begin == fix.line_end;
      if (fix.is_insertion()) {
        out += "insert before line ";
        out += std::to_string(fix.line_begin);
      } else if (fix.replacement.empty()) {
        append_lines(one_line ? "delete line " : "delete lines ",
                     fix.line_begin, fix.line_end);
      } else {
        append_lines(one_line ? "replace line " : "replace lines ",
                     fix.line_begin, fix.line_end);
      }
      if (!fix.replacement.empty()) {
        std::string_view body = fix.replacement;
        while (!body.empty() && body.back() == '\n') body.remove_suffix(1);
        // Multi-line replacements render with aligned continuation.
        out += " with `";
        for (char c : body) {
          out += c;
          if (c == '\n') out += "         ";
        }
        out += '`';
      }
      out += '\n';
    }
  }
  return out;
}

Json diagnostics_to_json(const std::vector<Diagnostic>& diags) {
  Json out(JsonArray{});
  for (const Diagnostic& d : diags) {
    Json entry;
    entry["severity"] = d.severity == Severity::kError ? "error" : "warning";
    entry["code"] = std::string(diag_code_name(d.code));
    entry["pass"] = d.pass_id;
    entry["line"] = d.line;
    entry["column"] = d.column;
    entry["message"] = d.message;
    if (d.fixit.has_value()) {
      Json fix;
      fix["line_begin"] = d.fixit->line_begin;
      fix["line_end"] = d.fixit->line_end;
      fix["replacement"] = d.fixit->replacement;
      fix["guard"] = d.fixit->guard;
      entry["fixit"] = std::move(fix);
    } else {
      entry["fixit"] = nullptr;
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qcgen::qasm
