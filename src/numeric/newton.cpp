#include "numeric/newton.hpp"

namespace softfet::numeric {

std::size_t first_non_finite(const std::vector<double>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return i;
  }
  return kNoUnknown;
}

const char* to_string(NewtonFailure failure) {
  switch (failure) {
    case NewtonFailure::kNone: return "converged";
    case NewtonFailure::kMaxIterations: return "newton max iterations";
    case NewtonFailure::kNonFiniteResidual: return "non-finite residual";
    case NewtonFailure::kNonFiniteUpdate: return "non-finite newton update";
    case NewtonFailure::kSingularMatrix: return "singular matrix";
  }
  return "unknown failure";
}

}  // namespace softfet::numeric
