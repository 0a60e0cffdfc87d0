#include "core/pipeline.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/state_io.hpp"
#include "liberty/json_io.hpp"
#include "opt/passes.hpp"
#include "sat/sweep.hpp"
#include "util/artifact_cache.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/obs.hpp"
#include "util/strings.hpp"

namespace cryo::core {

namespace obs = util::obs;

// ------------------------------------------------------------ PassArgs --

namespace {

const std::string* find_value(
    const std::vector<std::pair<std::string, std::string>>& values,
    std::string_view flag) {
  for (const auto& [f, v] : values) {
    if (f == flag) {
      return &v;
    }
  }
  return nullptr;
}

}  // namespace

bool PassArgs::has(std::string_view flag) const {
  return find_value(values, flag) != nullptr;
}

unsigned PassArgs::get_uint(std::string_view flag, unsigned fallback) const {
  const std::string* v = find_value(values, flag);
  // Validated at parse time, so a plain strtoul cannot fail here.
  return v ? static_cast<unsigned>(std::strtoul(v->c_str(), nullptr, 10))
           : fallback;
}

opt::CostPriority PassArgs::get_priority(std::string_view flag,
                                         opt::CostPriority fallback) const {
  const std::string* v = find_value(values, flag);
  return v ? *opt::priority_from_string(*v) : fallback;
}

// -------------------------------------------------------- PassRegistry --

void PassRegistry::add(Pass pass) {
  std::string name = pass.name;
  passes_.insert_or_assign(std::move(name), std::move(pass));
}

const Pass* PassRegistry::find(std::string_view name) const {
  const auto it = passes_.find(name);
  return it == passes_.end() ? nullptr : &it->second;
}

std::vector<const Pass*> PassRegistry::passes() const {
  std::vector<const Pass*> out;
  out.reserve(passes_.size());
  for (const auto& [name, pass] : passes_) {
    out.push_back(&pass);
  }
  return out;
}

// ----------------------------------------------------- builtin passes --

namespace {

ArgSpec uint_arg(std::string flag, unsigned min, unsigned max,
                 std::string help) {
  ArgSpec spec;
  spec.flag = std::move(flag);
  spec.kind = ArgKind::kUInt;
  spec.min_uint = min;
  spec.max_uint = max;
  spec.help = std::move(help);
  return spec;
}

ArgSpec priority_arg() {
  ArgSpec spec;
  spec.flag = "-p";
  spec.kind = ArgKind::kPriority;
  spec.help = "cost-priority list: baseline | pad | pda";
  return spec;
}

Pass aig_pass(std::string name, std::string help, std::vector<ArgSpec> args,
              std::function<void(FlowState&, const PassArgs&)> run) {
  Pass pass;
  pass.name = std::move(name);
  pass.help = std::move(help);
  pass.args = std::move(args);
  pass.aig_transform = true;
  pass.run = std::move(run);
  return pass;
}

util::Budget& budget_of(const FlowState& s) {
  return s.budget != nullptr ? *s.budget : util::Budget::global();
}

PassRegistry make_builtin_registry() {
  PassRegistry registry;

  registry.add(aig_pass(
      "balance", "AND-tree balancing (depth reduction)", {},
      [](FlowState& s, const PassArgs&) { s.aig = opt::balance(s.aig); }));

  registry.add(aig_pass(
      "rewrite", "DAG-aware cut rewriting",
      {uint_arg("-k", 2, 8, "cut size")},
      [](FlowState& s, const PassArgs& args) {
        s.aig = opt::rewrite(s.aig, args.get_uint("-k", 4));
      }));

  registry.add(aig_pass(
      "refactor", "reconvergence-driven cone refactoring",
      {uint_arg("-l", 4, 16, "max cone leaves")},
      [](FlowState& s, const PassArgs& args) {
        s.aig = opt::refactor(s.aig, args.get_uint("-l", 10));
      }));

  {
    Pass pass = aig_pass(
        "resub", "windowed resubstitution",
        {uint_arg("-l", 4, 16, "max window leaves")},
        [](FlowState& s, const PassArgs& args) {
          s.aig = opt::resub(s.aig, args.get_uint("-l", 8), &budget_of(s));
        });
    pass.budget_aware = true;
    registry.add(std::move(pass));
  }

  {
    Pass pass = aig_pass(
        "c2rs", "compress2rs: resub/rewrite/refactor/balance to fixpoint", {},
        [](FlowState& s, const PassArgs&) {
          s.aig = opt::compress2rs(s.aig, &budget_of(s));
          s.after_c2rs = s.aig.num_ands();
        });
    pass.budget_aware = true;
    registry.add(std::move(pass));
  }

  {
    Pass pass = aig_pass(
        "dch", "SAT sweeping for structural choices", {},
        [](FlowState& s, const PassArgs&) {
          // The AIG entering stage 2 is what `strash` compares against.
          s.stage_checkpoint = s.aig;
          sat::SweepOptions sopt;
          sopt.seed = s.options.seed;
          sopt.conflict_limit = s.options.sat_conflict_budget;
          sopt.budget = &budget_of(s);
          sat::SweepResult sweep = sat::sat_sweep(s.aig, sopt);
          s.aig = std::move(sweep.aig);
          s.choices = std::move(sweep.choices);
          s.has_choices = true;
        });
    pass.uses_sat = true;
    pass.budget_aware = true;
    registry.add(std::move(pass));
  }

  {
    Pass pass;
    pass.name = "if";
    pass.help = "power-aware k-LUT mapping (uses dch choices if present)";
    pass.args = {uint_arg("-K", 2, 16, "LUT input count"), priority_arg()};
    pass.makes_luts = true;
    pass.run = [](FlowState& s, const PassArgs& args) {
      if (!s.stage_checkpoint) {
        s.stage_checkpoint = s.aig;
      }
      opt::LutMapOptions lopt;
      lopt.k = args.get_uint("-K", s.options.lut_k);
      lopt.priority = args.get_priority("-p", s.options.priority);
      lopt.epsilon = s.options.epsilon;
      lopt.input_activity = s.options.input_activity;
      lopt.seed = s.options.seed;
      s.luts =
          opt::lut_map(s.aig, lopt, s.has_choices ? &s.choices : nullptr);
    };
    registry.add(std::move(pass));
  }

  {
    Pass pass;
    pass.name = "mfs";
    pass.help = "SAT don't-care minimization of the pending LUT cover";
    pass.needs_luts = true;
    pass.uses_sat = true;
    pass.budget_aware = true;
    pass.run = [](FlowState& s, const PassArgs&) {
      opt::MfsOptions mopt;
      mopt.seed = s.options.seed;
      mopt.budget = &budget_of(s);
      (void)opt::mfs(*s.luts, mopt);
    };
    registry.add(std::move(pass));
  }

  {
    Pass pass;
    pass.name = "strash";
    pass.help = "rebuild a hashed AIG from the LUT cover (keeps the "
                "stage-2 input if the round-trip inflated the network)";
    pass.needs_luts = true;
    pass.run = [](FlowState& s, const PassArgs&) {
      logic::Aig optimized = opt::luts_to_aig(*s.luts);
      // Keep the better of the two stages (the LUT round-trip
      // occasionally inflates small networks; ABC scripts guard
      // similarly).
      if (optimized.num_ands() > s.stage_checkpoint->num_ands()) {
        optimized = std::move(*s.stage_checkpoint);
      }
      s.aig = std::move(optimized);
      s.luts.reset();
      s.choices.clear();
      s.has_choices = false;
      s.stage_checkpoint.reset();
      s.after_power_stage = s.aig.num_ands();
      s.saw_strash = true;
      if (s.initial_ands > s.after_power_stage) {
        obs::counter("core.nodes_saved")
            .add(s.initial_ands - s.after_power_stage);
      }
    };
    registry.add(std::move(pass));
  }

  {
    Pass pass;
    pass.name = "map";
    pass.help = "cryogenic-aware standard-cell technology mapping";
    pass.args = {priority_arg(),
                 uint_arg("-C", 1, 32, "priority cuts kept per node"),
                 uint_arg("-M", 1, 16, "matches evaluated per cut"),
                 uint_arg("-F", 0, 1, "cut order: 0 size-first, 1 area-flow")};
    pass.run = [](FlowState& s, const PassArgs& args) {
      if (s.matcher == nullptr) {
        throw RecipeError{
            "pass 'map' needs a cell library: FlowState.matcher is null"};
      }
      map::TechMapOptions topt;
      topt.priority = args.get_priority("-p", s.options.priority);
      topt.cuts_per_node = args.get_uint("-C", topt.cuts_per_node);
      topt.matches_per_cut = args.get_uint("-M", topt.matches_per_cut);
      topt.cut_order = args.get_uint("-F", 0) != 0
                           ? logic::CutOrder::kAreaFlow
                           : logic::CutOrder::kSizeFirst;
      topt.epsilon = s.options.epsilon;
      topt.input_activity = s.options.input_activity;
      topt.clock_estimate = s.options.clock_estimate;
      topt.seed = s.options.seed;
      topt.budget = &budget_of(s);
      s.netlist = map::tech_map(s.aig, *s.matcher, topt);
      s.has_netlist = true;
    };
    registry.add(std::move(pass));
  }

  return registry;
}

}  // namespace

const PassRegistry& PassRegistry::global() {
  static const PassRegistry registry = make_builtin_registry();
  return registry;
}

// -------------------------------------------------------------- parse --

namespace {

[[noreturn]] void fail(std::size_t segment, std::string_view context,
                       const std::string& message) {
  throw RecipeError{"recipe error in segment " + std::to_string(segment + 1) +
                    " ('" + std::string{context} + "'): " + message};
}

std::string known_passes(const PassRegistry& registry) {
  std::string names;
  for (const Pass* pass : registry.passes()) {
    if (!names.empty()) {
      names += ", ";
    }
    names += pass->name;
  }
  return names;
}

const ArgSpec* find_spec(const Pass& pass, std::string_view flag) {
  for (const ArgSpec& spec : pass.args) {
    if (spec.flag == flag) {
      return &spec;
    }
  }
  return nullptr;
}

/// Validate and canonicalize one flag value against its spec.
std::string canonical_value(std::size_t segment, std::string_view context,
                            const Pass& pass, const ArgSpec& spec,
                            const std::string& raw) {
  switch (spec.kind) {
    case ArgKind::kUInt: {
      const char* begin = raw.c_str();
      char* end = nullptr;
      const unsigned long value = std::strtoul(begin, &end, 10);
      if (raw.empty() || end != begin + raw.size() || raw[0] == '-') {
        fail(segment, context,
             "bad value for " + spec.flag + " of pass '" + pass.name +
                 "': '" + raw + "' (expected an integer in [" +
                 std::to_string(spec.min_uint) + ", " +
                 std::to_string(spec.max_uint) + "])");
      }
      if (value < spec.min_uint || value > spec.max_uint) {
        fail(segment, context,
             spec.flag + " " + raw + " of pass '" + pass.name +
                 "' is out of range [" + std::to_string(spec.min_uint) +
                 ", " + std::to_string(spec.max_uint) + "]");
      }
      return std::to_string(value);
    }
    case ArgKind::kPriority: {
      const auto priority = opt::priority_from_string(raw);
      if (!priority) {
        fail(segment, context,
             "bad value for " + spec.flag + " of pass '" + pass.name +
                 "': '" + raw + "' (expected baseline | pad | pda)");
      }
      return opt::short_name(*priority);
    }
  }
  fail(segment, context, "unhandled argument kind");
}

}  // namespace

Pipeline Pipeline::parse(std::string_view script,
                         const PassRegistry& registry) {
  Pipeline pipeline;
  // Split into ';'-separated segments by hand (util::split drops empty
  // tokens, but we need segment *indices* for diagnostics).
  std::vector<std::string_view> segments;
  std::size_t start = 0;
  while (start <= script.size()) {
    const std::size_t semi = script.find(';', start);
    const std::size_t end = semi == std::string_view::npos ? script.size()
                                                           : semi;
    segments.push_back(script.substr(start, end - start));
    if (semi == std::string_view::npos) {
      break;
    }
    start = semi + 1;
  }

  bool luts_pending = false;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string_view segment = util::trim(segments[i]);
    if (segment.empty()) {
      continue;  // stray ';' / trailing ';' are fine
    }
    const std::vector<std::string> tokens = util::split(segment, " \t\r\n");
    const std::string& name = tokens.front();
    const Pass* pass = registry.find(name);
    if (pass == nullptr) {
      fail(i, segment,
           "unknown pass '" + name + "' (known: " + known_passes(registry) +
               ")");
    }

    PassInvocation invocation;
    invocation.pass = pass;
    // Collect (flag, value) pairs, then re-order canonically below.
    std::vector<std::pair<std::string, std::string>> given;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const std::string& flag = tokens[t];
      const ArgSpec* spec = find_spec(*pass, flag);
      if (spec == nullptr) {
        fail(i, segment,
             "unknown flag '" + flag + "' for pass '" + name + "'" +
                 (pass->args.empty() ? " (it takes no flags)" : ""));
      }
      if (find_value(given, flag) != nullptr) {
        fail(i, segment, "duplicate flag " + flag + " for pass '" + name +
                             "'");
      }
      if (t + 1 >= tokens.size()) {
        fail(i, segment,
             "missing value for " + flag + " of pass '" + name + "'");
      }
      given.emplace_back(flag,
                         canonical_value(i, segment, *pass, *spec,
                                         tokens[++t]));
    }
    // Canonical order = spec declaration order.
    for (const ArgSpec& spec : pass->args) {
      if (const std::string* v = find_value(given, spec.flag)) {
        invocation.args.values.emplace_back(spec.flag, *v);
      }
    }

    // Static sequencing check.
    if (pass->needs_luts && !luts_pending) {
      fail(i, segment,
           "pass '" + name +
               "' needs a pending LUT cover; run 'if' before it");
    }
    if ((pass->aig_transform || pass->makes_luts || name == "map") &&
        luts_pending) {
      fail(i, segment,
           "pass '" + name +
               "' cannot run while a LUT cover is pending; run 'strash' "
               "first");
    }
    if (pass->makes_luts) {
      luts_pending = true;
    } else if (name == "strash") {
      luts_pending = false;
    }

    pipeline.sequence_.push_back(std::move(invocation));
  }

  if (pipeline.sequence_.empty()) {
    throw RecipeError{"recipe contains no passes"};
  }
  if (luts_pending) {
    throw RecipeError{
        "recipe ends with a pending LUT cover; add 'strash' after 'if'"};
  }
  return pipeline;
}

// -------------------------------------------------------------- print --

std::string PassInvocation::to_string() const {
  std::string out = pass->name;
  for (const auto& [flag, value] : args.values) {
    out += " " + flag + " " + value;
  }
  return out;
}

std::string Pipeline::to_string() const {
  std::string out;
  for (const PassInvocation& invocation : sequence_) {
    if (!out.empty()) {
      out += "; ";
    }
    out += invocation.to_string();
  }
  return out;
}

// ---------------------------------------------------------------- run --

namespace {

/// Artifact-cache stage of one pass execution: key = the state the pass
/// consumed + the pass itself + everything the pass reads from outside
/// the state; value = the resulting `FlowState` snapshot (state_io.hpp).
constexpr std::string_view kPassStage = "core.pass";

/// Process-wide kill switch (`CRYOEDA_PASS_CACHE=0`), separate from
/// `CRYOEDA_CACHE` so pass-level reuse can be benchmarked against
/// scenario-level reuse without disabling the whole cache.
bool pass_cache_env_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("CRYOEDA_PASS_CACHE");
    return env == nullptr || std::string_view{env} != "0";
  }();
  return enabled;
}

/// A pass participates in the cache iff its incoming state and its
/// result both round-trip through a snapshot: the AIG transforms and
/// `dch`. `if` produces a pending LUT cover (not serializable), `mfs` /
/// `strash` consume one, and `map`'s netlist is cheap relative to the
/// passes before it.
bool pass_cacheable(const Pass& pass) {
  return !pass.needs_luts && !pass.makes_luts && pass.name != "map";
}

util::Json pass_cache_inputs(std::uint64_t state_fp,
                             const PassInvocation& invocation,
                             std::uint64_t library_fp,
                             const FlowOptions& options) {
  util::Json inputs = util::Json::object();
  inputs["pass_key_version"] = util::Json{kPassCacheKeyVersion};
  inputs["state_fingerprint"] = util::Json{util::hex64(state_fp)};
  // Canonical print, so spelling variants share an entry. Flag defaults
  // baked into the pass lambdas (e.g. rewrite's k = 4) are not spelled
  // out here: changing one is a semantics change covered by
  // kCacheSchemaVersion, like any other pass-body change.
  inputs["pass"] = util::Json{invocation.to_string()};
  inputs["library_fingerprint"] = util::Json{util::hex64(library_fp)};
  // The FlowOptions knobs pass bodies read (fallbacks for -K/-p and the
  // kernel seeds/thresholds). use_choices/use_mfs steer recipe
  // *construction*, not pass behaviour, so they stay out.
  util::Json flow = util::Json::object();
  flow["priority"] = util::Json{std::string{opt::short_name(options.priority)}};
  flow["epsilon"] = util::Json{options.epsilon};
  flow["input_activity"] = util::Json{options.input_activity};
  flow["lut_k"] = util::Json{options.lut_k};
  flow["clock_estimate"] = util::Json{options.clock_estimate};
  flow["seed"] = util::Json{options.seed};
  flow["sat_conflict_budget"] = util::Json{options.sat_conflict_budget};
  inputs["flow"] = std::move(flow);
  return inputs;
}

}  // namespace

void Pipeline::run(FlowState& state) const {
  validate(state.options);
  util::Budget& budget = budget_of(state);
  state.initial_ands = state.aig.num_ands();

  util::ArtifactCache& cache = util::ArtifactCache::global();
  // Budget constraints that change what a pass *produces* (not merely
  // whether it finishes) make cached snapshots wrong answers: a
  // node-growth ceiling reverts inflating transforms, and an already
  // soft-exhausted budget skips them outright. Restoring a full-quality
  // snapshot there would silently undo the constraint. A live-but-not-
  // exhausted deadline or SAT ceiling is fine — clean (non-degraded)
  // results under those are identical to unbudgeted ones, which is what
  // lets the recipe-search driver combine per-variant deadlines with
  // prefix reuse.
  const bool budget_allows = !budget.cancelled() &&
                             !budget.soft_exhausted() &&
                             budget.node_growth_limit() <= 0.0;
  const bool caching = state.use_pass_cache && budget_allows &&
                       pass_cache_env_enabled() && cache.enabled();
  const std::uint64_t library_fp =
      state.matcher != nullptr
          ? liberty::fingerprint(state.matcher->library())
          : 0;

  // Longest-cached-prefix skip: restore snapshots front-to-back until
  // the first miss or the first pass whose result cannot snapshot. Keys
  // chain through the restored states, so a hit at step k certifies the
  // whole prefix up to k.
  std::size_t resume_at = 0;
  if (caching && snapshotable(state)) {
    while (resume_at < sequence_.size()) {
      const PassInvocation& invocation = sequence_[resume_at];
      if (!pass_cacheable(*invocation.pass)) {
        break;
      }
      const std::string key = util::ArtifactCache::key(
          kPassStage, pass_cache_inputs(state_fingerprint(state), invocation,
                                        library_fp, state.options));
      auto hit = cache.load(kPassStage, key);
      if (!hit) {
        obs::counter("cache.pass_misses").add();
        break;
      }
      try {
        snapshot_from_json(*hit, state);
      } catch (const std::exception&) {
        obs::counter("cache.corrupt").add();
        break;  // fall through to recomputation from the current state
      }
      obs::counter("cache.pass_hits").add();
      // Keep the work-shape diagnostic meaningful on warm runs too.
      obs::gauge("pass." + invocation.pass->name + ".nodes",
                 obs::Unit::kNodes)
          .set(static_cast<double>(state.aig.num_ands()));
      ++resume_at;
    }
  }

  for (std::size_t step = resume_at; step < sequence_.size(); ++step) {
    const PassInvocation& invocation = sequence_[step];
    const Pass& pass = *invocation.pass;
    budget.check_cancelled("pass." + pass.name);

    // Compute the store key before the pass mutates the state: entries
    // are addressed by what the pass *consumed*. Only clean incoming
    // states get a key — after `if` the state carries a pending cover
    // and the chain is broken until the next run starts fresh.
    std::string store_key;
    if (caching && pass_cacheable(pass) && snapshotable(state)) {
      store_key = util::ArtifactCache::key(
          kPassStage, pass_cache_inputs(state_fingerprint(state), invocation,
                                        library_fp, state.options));
    }

    // Soft budget exhaustion *degrades* the flow instead of failing it:
    // out of wall-clock, every optimization pass is skipped; out of SAT
    // conflicts, only the SAT-backed passes are. `map` is never skipped
    // — the flow must still produce a netlist.
    bool degraded = false;
    bool skipped = false;
    const bool degradable = pass.name != "map";
    if (degradable && (budget.deadline_exceeded() ||
                       (pass.uses_sat && budget.sat_exhausted()))) {
      skipped = true;
      degraded = true;
    } else if (pass.needs_luts && !state.luts) {
      // An upstream skip consumed this pass's input (`if` skipped under
      // deadline leaves no pending cover): no-op instead of crashing.
      skipped = true;
      degraded = true;
    }

    if (!skipped) {
      // Optional node-growth ceiling: revert any AIG transform whose
      // result inflated the network past the configured factor.
      const double growth_limit = budget.node_growth_limit();
      const bool guarded = growth_limit > 0.0 && pass.aig_transform;
      logic::Aig snapshot;
      if (guarded) {
        snapshot = state.aig;
      }
      {
        const obs::ScopedSpan span{"pass." + pass.name};
        pass.run(state, invocation.args);
      }
      if (guarded && static_cast<double>(state.aig.num_ands()) >
                         growth_limit *
                             std::max(1u, snapshot.num_ands())) {
        state.aig = std::move(snapshot);
        degraded = true;
      }
      // A budget found exhausted right after a budget-aware pass means
      // the pass stopped early; record that as a degradation too.
      if (pass.budget_aware && (budget.deadline_exceeded() ||
                                (pass.uses_sat && budget.sat_exhausted()))) {
        degraded = true;
      }
      obs::counter("pass." + pass.name + ".runs").add();
    }
    if (degraded) {
      obs::counter("pass." + pass.name + ".degraded").add();
      state.degraded = true;
    }
    // Store the clean snapshot this pass produced. Never a degraded one
    // (`state.degraded` covers this pass and every pass before it): the
    // key covers inputs only, so a budget-starved intermediate would be
    // served to later unbudgeted runs as the full-quality result —
    // the same rule the scenario cache enforces.
    if (!store_key.empty() && !skipped && !state.degraded &&
        snapshotable(state)) {
      cache.store(kPassStage, store_key, snapshot_to_json(state));
    }
    // Diagnostic (Unit::kNodes, excluded from the signoff report):
    // network size leaving the pass — gates once mapped, LUTs while a
    // cover is pending, AND nodes otherwise.
    const double nodes =
        pass.name == "map"
            ? static_cast<double>(state.netlist.gate_count())
            : (state.luts ? static_cast<double>(state.luts->lut_count)
                          : static_cast<double>(state.aig.num_ands()));
    obs::gauge("pass." + pass.name + ".nodes", obs::Unit::kNodes).set(nodes);
  }
}

// ---------------------------------------------------------- canonical --

std::string canonical_recipe(const FlowOptions& options) {
  const std::string p = opt::short_name(options.priority);
  std::string recipe = "c2rs";
  if (options.use_choices) {
    recipe += "; dch";
  }
  recipe += "; if -K " + std::to_string(options.lut_k) + " -p " + p;
  if (options.use_mfs) {
    recipe += "; mfs";
  }
  recipe += "; strash; map -p " + p;
  return recipe;
}

}  // namespace cryo::core
