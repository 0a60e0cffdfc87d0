#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/obs.hpp"

namespace cryo::core {

/// Recipe parse / validation failure. `what()` carries an actionable
/// message with the offending segment, pass, and flag.
class RecipeError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One failure placed in the cryo::Error taxonomy (util/error.hpp).
struct Failure {
  std::string error;  ///< what() of the exception, verbatim
  ErrorKind kind = ErrorKind::kInternal;

  std::string_view error_kind() const { return error_kind_name(kind); }
  int exit_code() const { return error_exit_code(kind); }
};

/// The one failure policy of every driver (CLI, daemon, fleets): a
/// cryo::Error keeps its own kind, a RecipeError is kRecipe, and any
/// other exception is kInternal.
Failure describe(const std::exception& e);

/// Fault isolation of one fleet entry (a Fig. 3 scenario, a search
/// variant, a matrix row): runs `body`; when it throws, the failure is
/// recorded in `entry.{ok, error, error_kind}` and the counter
/// `errors_counter` is bumped, so the entry's siblings still complete.
/// A kBudget failure is rethrown instead: an exhausted or cancelled
/// budget stops the whole run.
template <typename Entry, typename Body>
void isolate(Entry& entry, std::string_view errors_counter, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    Failure failure = describe(e);
    if (failure.kind == ErrorKind::kBudget) {
      throw;
    }
    entry.ok = false;
    entry.error = std::move(failure.error);
    entry.error_kind = std::string{failure.error_kind()};
    util::obs::counter(errors_counter).add();
  }
}

}  // namespace cryo::core
