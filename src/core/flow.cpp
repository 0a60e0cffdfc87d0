#include "core/flow.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/pipeline.hpp"
#include "util/obs.hpp"

namespace cryo::core {

namespace obs = util::obs;

void validate(const FlowOptions& options) {
  if (options.lut_k < 2 || options.lut_k > 16) {
    throw std::invalid_argument{
        "FlowOptions.lut_k = " + std::to_string(options.lut_k) +
        " is unusable: the k-LUT stage supports k in [2, 16]"};
  }
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    throw std::invalid_argument{
        "FlowOptions.epsilon = " + std::to_string(options.epsilon) +
        " is unusable: the tie-break threshold must be a finite value >= 0 "
        "(0 disables threshold relaxation)"};
  }
  if (!(options.input_activity > 0.0) || options.input_activity > 1.0) {
    throw std::invalid_argument{
        "FlowOptions.input_activity = " +
        std::to_string(options.input_activity) +
        " is unusable: the PI toggle rate must be in (0, 1]"};
  }
  if (!(options.clock_estimate > 0.0) ||
      !std::isfinite(options.clock_estimate)) {
    throw std::invalid_argument{
        "FlowOptions.clock_estimate = " +
        std::to_string(options.clock_estimate) +
        " is unusable: the clock period estimate must be a positive finite "
        "time in seconds"};
  }
  if (options.sat_conflict_budget == 0 || options.sat_conflict_budget < -1) {
    throw std::invalid_argument{
        "FlowOptions.sat_conflict_budget = " +
        std::to_string(options.sat_conflict_budget) +
        " is unusable: the per-call SAT conflict ceiling must be >= 1, or "
        "-1 for unlimited (disable sweeping with use_choices instead of 0)"};
  }
}

namespace {

FlowResult run_recipe(const logic::Aig& input, const map::CellMatcher& matcher,
                      const FlowOptions& options, const Pipeline& pipeline,
                      util::Budget* budget = nullptr) {
  const obs::ScopedSpan flow_span{"core.synthesize:" + input.name()};
  obs::counter("core.synthesis_runs").add();

  FlowState state;
  state.aig = input;
  state.matcher = &matcher;
  state.options = options;
  state.budget = budget;
  pipeline.run(state);

  FlowResult result;
  result.initial_ands = state.initial_ands;
  result.after_c2rs = state.after_c2rs;
  // A recipe without `strash` never closes stage 2; report the final
  // network size so the figures stay meaningful.
  result.after_power_stage =
      state.saw_strash ? state.after_power_stage : state.aig.num_ands();
  result.netlist = std::move(state.netlist);
  result.optimized = std::move(state.aig);
  result.degraded = state.degraded;
  return result;
}

}  // namespace

FlowResult synthesize(const logic::Aig& input, const map::CellMatcher& matcher,
                      const FlowOptions& options) {
  validate(options);
  return run_recipe(input, matcher, options,
                    Pipeline::parse(canonical_recipe(options)));
}

FlowResult synthesize_with_recipe(const logic::Aig& input,
                                  const map::CellMatcher& matcher,
                                  const FlowOptions& options,
                                  std::string_view recipe,
                                  util::Budget* budget) {
  validate(options);
  return run_recipe(input, matcher, options, Pipeline::parse(recipe), budget);
}

}  // namespace cryo::core
