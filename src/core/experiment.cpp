#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/failure.hpp"
#include "core/pipeline.hpp"
#include "liberty/json_io.hpp"
#include "util/artifact_cache.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/hash.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace cryo::core {

namespace obs = util::obs;

double CircuitComparison::power_saving_pad() const {
  if (!pad.ok || !baseline.ok || !(baseline.total_power > 0.0)) {
    return 0.0;
  }
  return 1.0 - pad.total_power / baseline.total_power;
}
double CircuitComparison::power_saving_pda() const {
  if (!pda.ok || !baseline.ok || !(baseline.total_power > 0.0)) {
    return 0.0;
  }
  return 1.0 - pda.total_power / baseline.total_power;
}
double CircuitComparison::delay_overhead_pad() const {
  if (!pad.ok || !baseline.ok || !(baseline.delay > 0.0)) {
    return 0.0;
  }
  return pad.delay / baseline.delay - 1.0;
}
double CircuitComparison::delay_overhead_pda() const {
  if (!pda.ok || !baseline.ok || !(baseline.delay > 0.0)) {
    return 0.0;
  }
  return pda.delay / baseline.delay - 1.0;
}

std::vector<ScenarioSpec> fig3_scenarios(const FlowOptions& flow) {
  std::vector<ScenarioSpec> specs;
  for (const auto priority :
       {opt::CostPriority::kBaselinePowerAware,
        opt::CostPriority::kPowerAreaDelay,
        opt::CostPriority::kPowerDelayArea}) {
    FlowOptions f = flow;
    f.priority = priority;
    specs.push_back(
        {opt::short_name(priority), priority, canonical_recipe(f)});
  }
  return specs;
}

void validate(const ExperimentOptions& options) {
  validate(options.flow);
  if (options.threads < 0) {
    throw std::invalid_argument{
        "ExperimentOptions.threads = " + std::to_string(options.threads) +
        " is unusable: use 0 for the CRYOEDA_THREADS default, 1 for "
        "serial, or a positive worker count"};
  }
  if (!(options.sta.clock_period > 0.0)) {
    throw std::invalid_argument{
        "ExperimentOptions.sta.clock_period must be a positive time in "
        "seconds"};
  }
  if (!(options.sta.input_slew > 0.0)) {
    throw std::invalid_argument{
        "ExperimentOptions.sta.input_slew must be a positive time in "
        "seconds"};
  }
}

namespace {

/// Artifact-cache stage of one synthesis + STA scenario (one benchmark,
/// one recipe). The key covers the circuit structure, the characterized
/// library (via fingerprint), the matcher bounds, the *canonical printed
/// recipe*, and the shared flow/STA knobs that steer the result; the
/// value is the scalar signoff figures — small enough to persist per
/// (circuit, recipe, corner) forever.
constexpr std::string_view kScenarioStage = "core.scenario";

util::Json scenario_cache_inputs(const logic::Aig& aig,
                                 const map::CellMatcher& matcher,
                                 const ExperimentOptions& options,
                                 const std::string& canonical) {
  util::Json inputs = util::Json::object();
  inputs["aig_fingerprint"] = util::Json{util::hex64(logic::fingerprint(aig))};
  inputs["library_fingerprint"] =
      util::Json{util::hex64(liberty::fingerprint(matcher.library()))};
  inputs["matcher_max_inputs"] = util::Json{matcher.max_inputs()};
  inputs["matcher_max_matches"] = util::Json{matcher.max_matches_per_key()};
  // The recipe replaces the old ad-hoc option tuple (priority,
  // use_choices, use_mfs, lut_k): those knobs are spelled out by the
  // canonical pipeline print, so two option sets compiling to the same
  // recipe share an entry.
  inputs["recipe"] = util::Json{canonical};

  const FlowOptions& flow = options.flow;
  util::Json f = util::Json::object();
  f["epsilon"] = util::Json{flow.epsilon};
  f["input_activity"] = util::Json{flow.input_activity};
  f["clock_estimate"] = util::Json{flow.clock_estimate};
  f["seed"] = util::Json{flow.seed};
  inputs["flow"] = std::move(f);

  const sta::StaOptions& sta = options.sta;
  util::Json s = util::Json::object();
  s["input_slew"] = util::Json{sta.input_slew};
  s["output_load"] = util::Json{sta.output_load};
  s["clock_period"] = util::Json{sta.clock_period};
  s["input_activity"] = util::Json{sta.input_activity};
  s["wire_cap_base"] = util::Json{sta.wire_cap_base};
  s["wire_cap_per_fanout"] = util::Json{sta.wire_cap_per_fanout};
  s["sim_words"] = util::Json{sta.sim_words};
  s["seed"] = util::Json{sta.seed};
  s["clamp_tables"] = util::Json{sta.clamp_tables};
  inputs["sta"] = std::move(s);
  return inputs;
}

util::Json scenario_to_json(const ScenarioResult& result) {
  util::Json json = util::Json::object();
  json["leakage_w"] = util::Json{result.power.leakage};
  json["internal_w"] = util::Json{result.power.internal};
  json["switching_w"] = util::Json{result.power.switching};
  json["delay_s"] = util::Json{result.delay};
  json["area_um2"] = util::Json{result.area};
  json["gates"] = util::Json{result.gates};
  return json;
}

ScenarioResult scenario_from_json(const util::Json& json,
                                  const ScenarioSpec& spec) {
  ScenarioResult result;
  result.scenario = spec.name;
  result.recipe = spec.recipe;
  result.priority = spec.priority;
  result.power.leakage = json.at("leakage_w").as_double();
  result.power.internal = json.at("internal_w").as_double();
  result.power.switching = json.at("switching_w").as_double();
  // Same sum the cold path computes from sta::PowerReport::total().
  result.total_power = result.power.total();
  result.delay = json.at("delay_s").as_double();
  result.area = json.at("area_um2").as_double();
  result.gates = static_cast<std::size_t>(json.at("gates").as_int());
  return result;
}

/// Rescale the dynamic power categories of a scenario from the analysis
/// clock to the normalized clock (dynamic power is proportional to the
/// clock frequency; leakage is clock-independent).
void renormalize(ScenarioResult& s, double analysis_clock,
                 double normalized_clock) {
  const double scale = analysis_clock / normalized_clock;
  s.power.internal *= scale;
  s.power.switching *= scale;
  s.total_power = s.power.total();
}

}  // namespace

ScenarioResult run_scenario(const logic::Aig& aig,
                            const map::CellMatcher& matcher,
                            const ExperimentOptions& options,
                            const ScenarioSpec& spec, util::Budget* budget) {
  const obs::ScopedSpan span{std::string{"core.scenario:"} + aig.name() + ":" +
                             spec.name};
  // A cached scenario would otherwise return before reaching any pass
  // boundary, so honor cancellation here too — on *this* scenario's
  // budget, not the global one (service jobs each carry their own).
  util::Budget& active = budget ? *budget : util::Budget::global();
  active.check_cancelled("core.scenario");
  util::faultinject::maybe_fail("core.scenario", ErrorKind::kInternal);
  // Cache under the canonical (parsed-and-printed) recipe, so spelling
  // variants of the same pipeline share an entry.
  const std::string canonical = Pipeline::parse(spec.recipe).to_string();
  auto& cache = util::ArtifactCache::global();
  std::string cache_key;
  if (cache.enabled()) {
    cache_key = util::ArtifactCache::key(
        kScenarioStage,
        scenario_cache_inputs(aig, matcher, options, canonical));
    if (auto hit = cache.load(kScenarioStage, cache_key)) {
      try {
        return scenario_from_json(*hit, spec);
      } catch (const std::exception&) {
        obs::counter("cache.corrupt").add();
      }
    }
  }
  obs::counter("core.scenarios_run").add();
  const FlowResult result = synthesize_with_recipe(
      aig, matcher, options.flow, spec.recipe, budget);
  const sta::StaResult signoff = sta::analyze(result.netlist, options.sta);
  ScenarioResult out;
  out.scenario = spec.name;
  out.recipe = spec.recipe;
  out.priority = spec.priority;
  out.power = signoff.power;
  out.total_power = signoff.power.total();
  out.delay = signoff.critical_delay;
  out.area = result.netlist.total_area();
  out.gates = result.netlist.gate_count();
  out.degraded = result.degraded;
  // Never cache a degraded run: the key covers inputs only (not the
  // budget state), so a budget-starved result would later be served to
  // unbudgeted runs as the authoritative figures for this scenario.
  if (cache.enabled() && !result.degraded) {
    cache.store(kScenarioStage, cache_key, scenario_to_json(out));
  } else if (result.degraded) {
    obs::counter("cache.degraded_skips").add();
  }
  return out;
}

CircuitComparison compare_circuit(const epfl::Benchmark& benchmark,
                                  const map::CellMatcher& matcher,
                                  const ExperimentOptions& options) {
  validate(options);
  CircuitComparison cmp;
  cmp.circuit = benchmark.name;
  // The three rows are three recipe strings (no per-scenario branches):
  // independent synthesis runs that, when this is the outermost parallel
  // level (e.g. a single-circuit ablation), run concurrently, otherwise
  // inline on the per-benchmark worker.
  const std::vector<ScenarioSpec> specs = fig3_scenarios(options.flow);
  const auto scenarios = util::parallel_map(
      specs.size(),
      [&](std::size_t i) {
        // Per-scenario fault isolation: a failing scenario records a
        // structured error in its row and lets its siblings complete.
        ScenarioResult row;
        row.scenario = specs[i].name;
        row.recipe = specs[i].recipe;
        row.priority = specs[i].priority;
        isolate(row, "fleet.scenario_errors", [&] {
          row = run_scenario(benchmark.aig, matcher, options, specs[i]);
        });
        return row;
      },
      options.threads);
  cmp.baseline = scenarios[0];
  cmp.pad = scenarios[1];
  cmp.pda = scenarios[2];

  // Footnote 1: every variant's power is reported at the clock period of
  // the slowest variant of the same circuit, so faster variants are not
  // penalized with proportionally higher clock power. Failed scenarios
  // (zero figures) are excluded from the normalization and the gauges.
  cmp.clock_period = 0.0;
  for (const ScenarioResult* s : {&cmp.baseline, &cmp.pad, &cmp.pda}) {
    if (s->ok) {
      cmp.clock_period = std::max(cmp.clock_period, s->delay);
    }
  }
  for (ScenarioResult* s : {&cmp.baseline, &cmp.pad, &cmp.pda}) {
    if (s->ok && cmp.clock_period > 0.0) {
      renormalize(*s, options.sta.clock_period, cmp.clock_period);
    }
  }

  // Per-scenario signoff roll-up: these gauges are the quality surface
  // the CI regression gate (scripts/check_regression.py) compares, so
  // they use the *normalized* figures that the paper tables report.
  for (const ScenarioResult* s : {&cmp.baseline, &cmp.pad, &cmp.pda}) {
    if (!s->ok) {
      continue;
    }
    const std::string prefix =
        "experiment." + cmp.circuit + "." + s->scenario + ".";
    obs::gauge(prefix + "power_w").set(s->total_power);
    obs::gauge(prefix + "delay_s", obs::Unit::kSeconds).set(s->delay);
    obs::gauge(prefix + "area_um2").set(s->area);
    obs::gauge(prefix + "gates").set(static_cast<double>(s->gates));
  }
  return cmp;
}

std::vector<CircuitComparison> run_synthesis_comparison(
    const std::vector<epfl::Benchmark>& suite, const map::CellMatcher& matcher,
    const ExperimentOptions& options) {
  validate(options);
  const obs::ScopedSpan span{"core.synthesis_comparison"};
  // One synthesis+STA pipeline per benchmark; rows are written by suite
  // index, so the table ordering (and every value in it) matches the
  // serial run for any thread count.
  return util::parallel_map(
      suite.size(),
      [&](std::size_t i) {
        const auto& benchmark = suite[i];
        if (options.verbose) {
          std::fprintf(stderr, "synthesizing %s (%u ANDs)...\n",
                       benchmark.name.c_str(), benchmark.aig.num_ands());
        }
        return compare_circuit(benchmark, matcher, options);
      },
      options.threads);
}

}  // namespace cryo::core
