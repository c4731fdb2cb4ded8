// Error types shared across the AW4A libraries.
//
// All recoverable failures are reported by throwing an exception derived from
// aw4a::Error; programming-logic violations (broken preconditions) use
// aw4a::LogicError so tests can distinguish the two.
//
// The taxonomy below drives the serving path's degradation ladder (see
// DESIGN.md "Failure model"): DeadlineExceeded means "serve the best anytime
// result found so far", and everything else fails the current work unit,
// whose caller falls back to a coarser result. Nothing is retried. Every Error carries a context chain (`with_context`) so an
// aggregated report names the tier/object/stage a failure came from.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace aw4a {

/// Base class for all runtime failures raised by AW4A components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what), message_(what) {}

  const char* what() const noexcept override { return message_.c_str(); }

  /// Prepends a context frame ("tier 3.0x: codec fault ..."). Used by
  /// with_context to build a chain while preserving the dynamic type.
  void add_context(const std::string& context) { message_ = context + ": " + message_; }

  /// Type-preserving copy and re-throw, for propagating one failure to many
  /// threads. Rethrowing a shared std::exception_ptr from several threads
  /// at once hands every thread the SAME exception object, whose lifetime
  /// is refcounted inside the (uninstrumented) C++ runtime — ThreadSanitizer
  /// cannot see that synchronization and flags reads of the object against
  /// its eventual destruction. clone() snapshots the failure once and
  /// raise() throws each consumer a fresh copy, keeping every exception
  /// object thread-private. Every subclass overrides both (same two lines)
  /// so the dynamic type survives the round trip.
  virtual std::shared_ptr<const Error> clone() const { return std::make_shared<Error>(*this); }
  [[noreturn]] virtual void raise() const { throw Error(*this); }

 private:
  std::string message_;
};

/// A caller violated a documented precondition (e.g. a negative byte budget).
class LogicError : public std::logic_error {
 public:
  explicit LogicError(const std::string& what) : std::logic_error(what) {}
};

/// An optimization run could not satisfy its constraints (e.g. the target page
/// size is below the minimum achievable under the quality threshold).
class Infeasible : public Error {
 public:
  explicit Infeasible(const std::string& what) : Error(what) {}
  std::shared_ptr<const Error> clone() const override { return std::make_shared<Infeasible>(*this); }
  [[noreturn]] void raise() const override { throw Infeasible(*this); }
};

/// A work unit ran out of wall-clock budget; the pipeline converts it into
/// the best anytime result.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
  std::shared_ptr<const Error> clone() const override { return std::make_shared<DeadlineExceeded>(*this); }
  [[noreturn]] void raise() const override { throw DeadlineExceeded(*this); }
};

/// Runs `fn`, prefixing any aw4a::Error that escapes with `context`. The
/// exception's dynamic type is preserved (mutate + rethrow), so
/// `with_context("tier 3.0x", ...)` around code throwing Infeasible still
/// surfaces as Infeasible — with a readable provenance chain in what().
template <typename F>
auto with_context(const std::string& context, F&& fn) -> decltype(fn()) {
  try {
    return std::forward<F>(fn)();
  } catch (Error& e) {
    e.add_context(context);
    throw;
  }
}

namespace detail {
[[noreturn]] inline void precondition_failed(const char* expr, const char* func) {
  throw LogicError(std::string("precondition failed: ") + expr + " in " + func);
}
}  // namespace detail

/// Lightweight precondition check that throws LogicError (never disabled, the
/// checks guarding public interfaces are part of the contract).
#define AW4A_EXPECTS(expr) \
  ((expr) ? static_cast<void>(0) : ::aw4a::detail::precondition_failed(#expr, __func__))

}  // namespace aw4a
