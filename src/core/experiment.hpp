#pragma once

#include <string>
#include <vector>

#include "core/flow.hpp"
#include "epfl/benchmarks.hpp"

namespace cryo::core {

/// One synthesis scenario, as data: a row label, the priority it
/// reports under, and the recipe string the pipeline executes. The
/// paper's §V-B rows are three of these differing only in `-p`.
struct ScenarioSpec {
  std::string name;              ///< row label: "baseline" | "pad" | "pda"
  opt::CostPriority priority{};  ///< reporting/normalization tag
  std::string recipe;            ///< pass script (core/pipeline.hpp)
};

/// The Fig. 3 scenario set for the given shared flow knobs: the
/// canonical recipe instantiated for baseline, p->a->d, and p->d->a.
std::vector<ScenarioSpec> fig3_scenarios(const FlowOptions& flow);

/// Signoff figures of one synthesis scenario on one circuit.
struct ScenarioResult {
  std::string scenario;      ///< row label (ScenarioSpec::name)
  std::string recipe;        ///< recipe that produced the figures
  opt::CostPriority priority{};
  double total_power = 0.0;  ///< [W], at the normalized clock
  sta::PowerReport power;
  double delay = 0.0;        ///< critical path [s]
  double area = 0.0;         ///< [um^2]
  std::size_t gates = 0;
  /// Fault isolation: a scenario whose synthesis threw records the
  /// failure here instead of sinking its sibling scenarios; its figures
  /// above stay zero and are excluded from normalization and gauges.
  bool ok = true;
  std::string error;       ///< what() of the failure (empty when ok)
  std::string error_kind;  ///< cryo::ErrorKind name, or "internal"
  /// True when the synthesis ran under an exhausted budget (passes
  /// skipped / stopped early / reverted). Degraded figures are never
  /// cached, and the recipe-search driver excludes them from "best".
  bool degraded = false;
};

/// Paper Fig. 3 rows: baseline vs the two proposed priority lists.
struct CircuitComparison {
  std::string circuit;
  ScenarioResult baseline;
  ScenarioResult pad;  ///< power -> area -> delay
  ScenarioResult pda;  ///< power -> delay -> area
  double clock_period = 0.0;  ///< normalized clock (slowest OK variant)

  /// All three scenarios produced valid figures.
  bool ok() const { return baseline.ok && pad.ok && pda.ok; }

  /// Savings/overheads are 0 when either side failed (or the baseline
  /// figure is non-positive), so a faulted row renders as "no change"
  /// rather than NaN/inf.
  double power_saving_pad() const;  ///< positive = proposed saves power
  double power_saving_pda() const;
  double delay_overhead_pad() const;  ///< positive = proposed is slower
  double delay_overhead_pda() const;
};

/// Options of the comparison experiment.
struct ExperimentOptions {
  FlowOptions flow;                  ///< shared flow knobs
  sta::StaOptions sta;               ///< signoff corner
  bool verbose = false;
  /// Workers for the per-benchmark synthesis+STA fleet: 0 = the
  /// CRYOEDA_THREADS env var, falling back to hardware concurrency;
  /// 1 = serial. Results are written by suite index, so they are
  /// identical for any thread count.
  int threads = 0;
};

/// Reject unusable experiment knobs (delegates to the FlowOptions
/// validator; additionally rejects a negative thread count and
/// non-positive signoff clock/slew). Called by the experiment drivers
/// on entry.
void validate(const ExperimentOptions& options);

/// Synthesize + signoff one (circuit, recipe) scenario, memoized in the
/// `core.scenario` artifact-cache stage (degraded runs are never
/// stored). `budget`, when non-null, bounds this scenario alone — the
/// recipe-search driver gives every variant its own wall-clock budget;
/// null uses `util::Budget::global()`. Throws on failure (RecipeError,
/// cryo::Error, ...); fleet callers wrap it in `core::isolate`.
ScenarioResult run_scenario(const logic::Aig& aig,
                            const map::CellMatcher& matcher,
                            const ExperimentOptions& options,
                            const ScenarioSpec& spec,
                            util::Budget* budget = nullptr);

/// Run the three scenarios of paper §V-B on one circuit, normalizing the
/// power clock to the slowest variant (footnote 1 of the paper).
CircuitComparison compare_circuit(const epfl::Benchmark& benchmark,
                                  const map::CellMatcher& matcher,
                                  const ExperimentOptions& options);

/// Run the full suite; returns one comparison row per circuit.
std::vector<CircuitComparison> run_synthesis_comparison(
    const std::vector<epfl::Benchmark>& suite, const map::CellMatcher& matcher,
    const ExperimentOptions& options);

}  // namespace cryo::core
