#pragma once

#include <string_view>

#include "logic/aig.hpp"
#include "map/mapper.hpp"
#include "opt/cost.hpp"
#include "sta/sta.hpp"

namespace cryo::util {
class Budget;
}  // namespace cryo::util

namespace cryo::core {

/// Options of the three-stage cryogenic-aware synthesis pipeline
/// (paper §V-B).
struct FlowOptions {
  opt::CostPriority priority = opt::CostPriority::kBaselinePowerAware;
  double epsilon = 0.02;
  double input_activity = 0.2;
  bool use_choices = true;       ///< SAT-sweep structural choices (dch)
  bool use_mfs = true;           ///< SAT-based don't-care resub (mfs)
  unsigned lut_k = 6;            ///< k of the power-aware LUT stage (if)
  double clock_estimate = 1e-9;  ///< leakage-vs-dynamic weighting in costs
  std::uint64_t seed = 29;
  /// Per-call SAT conflict ceiling of the dch sweeping stage (`cryoeda
  /// --sat-budget`): a candidate pair whose proof exceeds it stays
  /// unmerged. -1 = unlimited; 0 is rejected by `validate` (it would
  /// silently disable sweeping — use `use_choices = false` for that).
  std::int64_t sat_conflict_budget = 500;
};

/// Reject unusable flow knobs with an actionable std::invalid_argument:
/// `lut_k` outside [2, 16], `epsilon` negative or not finite (0 is
/// valid — it disables tie-break relaxation and is swept by the epsilon
/// ablation), `input_activity` outside (0, 1], `clock_estimate` not a
/// positive finite time, `sat_conflict_budget` zero or below -1. Called
/// by `synthesize` and the experiment drivers on entry.
void validate(const FlowOptions& options);

/// Result of a full synthesis run.
struct FlowResult {
  logic::Aig optimized;   ///< AIG after stages (1) and (2)
  map::Netlist netlist;   ///< after stage (3)
  unsigned initial_ands = 0;
  unsigned after_c2rs = 0;
  unsigned after_power_stage = 0;
  /// True when any pass degraded under a budget (skipped, stopped
  /// early, or reverted). Callers that persist results keyed on inputs
  /// alone (the scenario artifact cache) must not store degraded runs.
  bool degraded = false;
};

/// The three-stage pipeline:
///  (1) technology-independent AIG compression (`c2rs`);
///  (2) power-aware optimization: SAT-sweep choices (`dch`), k-LUT
///      mapping with the configured cost priority (`if`), SAT-based
///      don't-care minimization (`mfs`), re-strash;
///  (3) cryogenic-aware technology mapping (`map`) with the configured
///      priority list.
///
/// Executes `core::canonical_recipe(options)` through the pass pipeline
/// (core/pipeline.hpp); behaviour-identical to the historical
/// hard-coded sequence (asserted bit-for-bit by tests/test_pipeline).
FlowResult synthesize(const logic::Aig& input, const map::CellMatcher& matcher,
                      const FlowOptions& options = {});

/// Synthesize with an explicit recipe string instead of the canonical
/// one — `options` still supplies the shared knobs (epsilon, activity,
/// seeds, defaults for `-K`/`-p`). Throws core::RecipeError on a
/// malformed recipe. If the recipe never runs `map`, the returned
/// netlist is empty. `budget`, when non-null, replaces
/// `util::Budget::global()` for this run (the recipe-search driver
/// gives every variant its own wall-clock budget this way).
FlowResult synthesize_with_recipe(const logic::Aig& input,
                                  const map::CellMatcher& matcher,
                                  const FlowOptions& options,
                                  std::string_view recipe,
                                  util::Budget* budget = nullptr);

}  // namespace cryo::core
