#pragma once
// Error handling primitives shared across qcgen libraries.
//
// Library-level failures throw QcgenError (or a subclass); expected,
// recoverable outcomes — e.g. "this generated program failed to parse" —
// are modelled as values (see qasm::Diagnostic), never as exceptions.

#include <stdexcept>
#include <string>

namespace qcgen {

/// Root exception for all qcgen failures.
class QcgenError : public std::runtime_error {
 public:
  explicit QcgenError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an API is called with arguments violating its preconditions.
class InvalidArgumentError : public QcgenError {
 public:
  explicit InvalidArgumentError(const std::string& what) : QcgenError(what) {}
};

/// Thrown when a simulator or decoder hits an internal invariant violation.
class InternalError : public QcgenError {
 public:
  explicit InternalError(const std::string& what) : QcgenError(what) {}
};

/// Precondition helper: throws InvalidArgumentError when cond is false.
/// Pass a string literal: it becomes a std::string only when the check
/// fails. A message that must be computed belongs in an explicit
/// `if (!cond) throw InvalidArgumentError(...)`, so a passing check never
/// formats it.
inline void require(bool cond, const char* message) {
  if (!cond) throw InvalidArgumentError(message);
}

/// Invariant helper: throws InternalError when cond is false. Same
/// literal-message idiom as require().
inline void ensure(bool cond, const char* message) {
  if (!cond) throw InternalError(message);
}

}  // namespace qcgen
