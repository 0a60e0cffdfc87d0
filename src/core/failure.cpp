#include "core/failure.hpp"

namespace cryo::core {

Failure describe(const std::exception& e) {
  Failure failure{e.what()};
  if (const auto* error = dynamic_cast<const Error*>(&e)) {
    failure.kind = error->kind();
  } else if (dynamic_cast<const RecipeError*>(&e) != nullptr) {
    failure.kind = ErrorKind::kRecipe;
  }
  return failure;
}

}  // namespace cryo::core
