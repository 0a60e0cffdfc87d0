#include "core/search.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/failure.hpp"
#include "core/pipeline.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cryo::core {

namespace obs = util::obs;

void validate(const SearchOptions& options) {
  validate(options.experiment);
  if (options.variants == 0) {
    throw std::invalid_argument{
        "SearchOptions.variants = 0 is unusable: the search needs at "
        "least one recipe to evaluate"};
  }
  if (!(options.per_variant_deadline_s >= 0.0) ||
      !std::isfinite(options.per_variant_deadline_s)) {
    throw std::invalid_argument{
        "SearchOptions.per_variant_deadline_s = " +
        std::to_string(options.per_variant_deadline_s) +
        " is unusable: the per-variant wall budget must be a finite time "
        "in seconds >= 0 (0 disables it)"};
  }
}

namespace {

/// Lexicographic (power, delay, area) comparison — the paper's
/// power-first objective. Ties (e.g. two recipes compiling to mapped
/// netlists with identical figures) break on the canonical recipe
/// string so "best" is deterministic.
bool better(const RecipeTrial& a, const RecipeTrial& b) {
  if (a.result.total_power != b.result.total_power) {
    return a.result.total_power < b.result.total_power;
  }
  if (a.result.delay != b.result.delay) {
    return a.result.delay < b.result.delay;
  }
  if (a.result.area != b.result.area) {
    return a.result.area < b.result.area;
  }
  return a.recipe < b.recipe;
}

util::Json trial_to_json(const RecipeTrial& trial) {
  util::Json json = util::Json::object();
  json["recipe"] = util::Json{trial.recipe};
  json["ok"] = util::Json{trial.result.ok};
  json["degraded"] = util::Json{trial.result.degraded};
  if (trial.result.ok) {
    json["power_w"] = util::Json{trial.result.total_power};
    json["delay_s"] = util::Json{trial.result.delay};
    json["area_um2"] = util::Json{trial.result.area};
    json["gates"] = util::Json{trial.result.gates};
  } else {
    json["error"] = util::Json{trial.result.error};
    json["error_kind"] = util::Json{trial.result.error_kind};
  }
  return json;
}

}  // namespace

std::vector<std::string> enumerate_recipes(const FlowOptions& flow,
                                           std::size_t count,
                                           std::uint64_t seed) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  const auto push = [&](const std::string& script) {
    if (out.size() >= count) {
      return;
    }
    std::string canonical;
    try {
      canonical = Pipeline::parse(script).to_string();
    } catch (const RecipeError&) {
      return;  // a mutation that broke sequencing rules: drop it
    }
    if (seen.insert(canonical).second) {
      out.push_back(std::move(canonical));
    }
  };

  // The Fig. 3 seeds always lead (and count against the budget), so the
  // search result can never be worse than the paper's own flows.
  for (const ScenarioSpec& spec : fig3_scenarios(flow)) {
    push(spec.recipe);
  }

  // Deterministic mutations of the seed shape: optional pre-compression
  // block, c2rs repetition, dch/mfs toggles, -K and priority sweeps,
  // and an occasional second LUT round.
  static constexpr const char* kPreBlocks[] = {
      "",
      "balance; ",
      "rewrite -k 4; balance; ",
      "balance; rewrite -k 6; refactor -l 10; balance; ",
      "resub -l 8; balance; ",
      "refactor -l 12; rewrite -k 4; ",
  };
  // Upper bound 6 matches the CutEnumerator limit (logic/cuts.cpp): a
  // larger -K parses fine but can never map, so it would only burn
  // variant budget on guaranteed failures.
  static constexpr unsigned kLutK[] = {3, 4, 5, 6};
  static constexpr const char* kPriorities[] = {"baseline", "pad", "pda"};
  util::Rng rng{seed};
  // The guard bounds the loop when `count` outruns the distinct-variant
  // space (dedup makes small spaces saturate).
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 64 + 256;
  while (out.size() < count && attempts++ < max_attempts) {
    std::string script{kPreBlocks[rng.next_below(std::size(kPreBlocks))]};
    script += "c2rs";
    if (rng.next_bool(0.25)) {
      script += "; c2rs";
    }
    if (rng.next_bool(0.75)) {
      script += "; dch";
    }
    script += "; if -K " + std::to_string(kLutK[rng.next_below(4)]) + " -p " +
              kPriorities[rng.next_below(3)];
    if (rng.next_bool(0.75)) {
      script += "; mfs";
    }
    script += "; strash";
    if (rng.next_bool(0.2)) {
      script += "; if -K " + std::to_string(kLutK[rng.next_below(4)]) +
                " -p " + kPriorities[rng.next_below(3)] + "; strash";
    }
    script += "; map -p ";
    script += kPriorities[rng.next_below(3)];
    push(script);
  }
  return out;
}

std::vector<CircuitSearchResult> search_recipes(
    const std::vector<epfl::Benchmark>& suite, const map::CellMatcher& matcher,
    const SearchOptions& options) {
  validate(options);
  const obs::ScopedSpan span{"core.recipe_search"};
  const std::vector<std::string> recipes = enumerate_recipes(
      options.experiment.flow, options.variants, options.seed);

  // One job per (circuit, variant); written by job index, so the trial
  // table — and therefore "best" — is thread-count independent.
  const std::size_t jobs = suite.size() * recipes.size();
  std::vector<RecipeTrial> trials = util::parallel_map(
      jobs,
      [&](std::size_t job) {
        const std::size_t circuit = job / recipes.size();
        const std::size_t variant = job % recipes.size();
        ScenarioSpec spec;
        spec.name = "variant" + std::to_string(variant);
        spec.priority = options.experiment.flow.priority;
        spec.recipe = recipes[variant];
        RecipeTrial trial;
        trial.recipe = recipes[variant];
        // Per-variant wall budget: one runaway variant degrades itself
        // instead of starving the sweep.
        util::Budget variant_budget;
        util::Budget* budget = nullptr;
        if (options.per_variant_deadline_s > 0.0) {
          variant_budget.set_deadline_in(options.per_variant_deadline_s);
          budget = &variant_budget;
        }
        // Same fault isolation as the fig3 fleet: record the failure in
        // the trial row; only global cancellation stops the sweep.
        isolate(trial.result, "search.variant_errors", [&] {
          trial.result = run_scenario(suite[circuit].aig, matcher,
                                      options.experiment, spec, budget);
        });
        obs::counter("search.variants_run").add();
        return trial;
      },
      options.experiment.threads);

  std::vector<CircuitSearchResult> results(suite.size());
  for (std::size_t c = 0; c < suite.size(); ++c) {
    CircuitSearchResult& result = results[c];
    result.circuit = suite[c].name;
    result.trials.assign(trials.begin() + c * recipes.size(),
                         trials.begin() + (c + 1) * recipes.size());
    for (std::size_t v = 0; v < result.trials.size(); ++v) {
      const RecipeTrial& trial = result.trials[v];
      if (!trial.result.ok || trial.result.degraded) {
        continue;
      }
      if (result.best < 0 ||
          better(trial, result.trials[static_cast<std::size_t>(result.best)])) {
        result.best = static_cast<int>(v);
      }
    }
  }
  return results;
}

util::Json search_report(const std::vector<CircuitSearchResult>& results,
                         const SearchOptions& options) {
  util::Json report = util::Json::object();
  report["schema"] = util::Json{"cryoeda-search-v1"};
  util::Json search = util::Json::object();
  search["variants"] = util::Json{options.variants};
  search["seed"] = util::Json{options.seed};
  search["per_variant_deadline_s"] =
      util::Json{options.per_variant_deadline_s};
  report["search"] = std::move(search);

  // The first three trials are the Fig. 3 seeds (enumerate_recipes
  // guarantees the order); naming them lets the regression gate compare
  // "best" against the paper's flows within the same report — the same
  // circuit, corner, and analysis clock, so the figures are directly
  // comparable.
  static constexpr const char* kSeedNames[] = {"baseline", "pad", "pda"};

  util::Json circuits = util::Json::array();
  for (const CircuitSearchResult& result : results) {
    util::Json row = util::Json::object();
    row["circuit"] = util::Json{result.circuit};
    if (result.best >= 0) {
      row["best"] =
          trial_to_json(result.trials[static_cast<std::size_t>(result.best)]);
    } else {
      row["best"] = util::Json{};
    }
    util::Json seeds = util::Json::object();
    for (std::size_t i = 0; i < result.trials.size() && i < 3; ++i) {
      seeds[kSeedNames[i]] = trial_to_json(result.trials[i]);
    }
    row["seeds"] = std::move(seeds);
    util::Json trials = util::Json::array();
    for (const RecipeTrial& trial : result.trials) {
      trials.push_back(trial_to_json(trial));
    }
    row["trials"] = std::move(trials);
    circuits.push_back(std::move(row));
  }
  report["circuits"] = std::move(circuits);
  return report;
}

}  // namespace cryo::core
