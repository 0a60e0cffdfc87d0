#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure.hpp"
#include "core/flow.hpp"
#include "opt/lut_map.hpp"

namespace cryo::util {
class Budget;
}  // namespace cryo::util

namespace cryo::core {

/// Scriptable pass pipeline (ABC-style): every transform of the
/// synthesis flow registers as a *named pass* over a shared `FlowState`,
/// and recipe strings like
///
///   "c2rs; dch; if -K 6 -p pad; mfs; strash; map -p pad"
///
/// compile into `Pipeline`s. This is how the paper expresses its
/// reordered priority-list flows (§V-B): a scenario is a recipe string,
/// not a C++ branch. `core::synthesize` executes the canonical recipe
/// through this machinery, the Fig. 3 experiment runs three recipe
/// strings, and the `cryoeda` CLI driver accepts arbitrary `--script`s.

/// Version of the *pass-cache key format*, mixed into every `core.pass`
/// artifact-cache key (and into CI's `actions/cache` key). Bump it when
/// the set of inputs serialized into `pass_cache_inputs` changes — a new
/// flag, a new FlowOptions knob read by pass bodies — so old entries
/// keyed under the previous input set cannot collide with new ones.
/// Semantic changes to pass *bodies* with unchanged inputs are covered
/// by `util::kCacheSchemaVersion` instead.
inline constexpr int kPassCacheKeyVersion = 1;

/// Mutable state threaded through a pipeline run: the current AIG,
/// stage-2 scratch (structural choices, a pending LUT cover, the
/// checkpoint the `strash` guard compares against), the mapped netlist,
/// and the legacy `FlowResult` statistics.
struct FlowState {
  logic::Aig aig;                          ///< current network
  const map::CellMatcher* matcher = nullptr;  ///< needed by `map`
  FlowOptions options;                     ///< shared knobs (defaults)

  /// Structural choices from `dch` (consumed by `if`).
  std::vector<std::vector<logic::Lit>> choices;
  bool has_choices = false;
  /// Pending LUT cover between `if` and `strash`. Points at `aig`,
  /// whose address is stable for the lifetime of the state.
  std::optional<opt::LutMapping> luts;
  /// AIG entering stage 2 (set by `dch`, or by `if` when there is no
  /// `dch`): `strash` keeps it if the LUT round-trip inflated the
  /// network, mirroring the guard ABC scripts use.
  std::optional<logic::Aig> stage_checkpoint;

  map::Netlist netlist;
  bool has_netlist = false;

  unsigned initial_ands = 0;
  unsigned after_c2rs = 0;
  unsigned after_power_stage = 0;
  bool saw_strash = false;
  /// True once any pass in this run degraded (skipped, stopped early,
  /// or was reverted by the node-growth guard). Degraded results must
  /// never enter the artifact cache: they would be served to later
  /// *unbudgeted* runs as if they were full-quality.
  bool degraded = false;

  /// Shared resource budget for the whole run; nullptr means
  /// `util::Budget::global()`. See Pipeline::run for the degradation
  /// semantics.
  util::Budget* budget = nullptr;

  /// Per-pass artifact caching (see Pipeline::run): when true and the
  /// global `util::ArtifactCache` is enabled, the run skips the longest
  /// cached prefix of the recipe and stores each clean intermediate
  /// snapshot. `CRYOEDA_PASS_CACHE=0` disables it process-wide.
  bool use_pass_cache = true;
};

/// Kinds a pass argument value can take.
enum class ArgKind {
  kUInt,      ///< bounded unsigned integer, e.g. `-K 6`
  kPriority,  ///< cost-priority short name, e.g. `-p pad`
};

/// Declaration of one flag a pass accepts.
struct ArgSpec {
  std::string flag;  ///< e.g. "-K"
  ArgKind kind = ArgKind::kUInt;
  unsigned min_uint = 0;  ///< inclusive bounds for kUInt values
  unsigned max_uint = 0;
  std::string help;
};

/// Parsed, validated arguments of one pass invocation. Values are
/// stored canonically (spec order), so printing is deterministic and
/// `parse(print(p))` round-trips exactly.
class PassArgs {
public:
  bool has(std::string_view flag) const;
  /// Typed accessors; values were validated at parse time.
  unsigned get_uint(std::string_view flag, unsigned fallback) const;
  opt::CostPriority get_priority(std::string_view flag,
                                 opt::CostPriority fallback) const;

  /// (flag, canonical value) pairs in the pass's spec order.
  std::vector<std::pair<std::string, std::string>> values;
};

/// A named pass: metadata for parsing/diagnostics plus the transform.
struct Pass {
  std::string name;
  std::string help;
  std::vector<ArgSpec> args;
  /// Sequencing constraints, checked at parse time: `if` produces a
  /// pending LUT cover, `mfs`/`strash` require one, AIG transforms and
  /// `map` must not run while one is pending.
  bool needs_luts = false;
  bool makes_luts = false;
  bool aig_transform = false;
  /// Pass is backed by SAT calls (dch, mfs): an exhausted SAT-conflict
  /// ceiling makes Pipeline::run skip it instead of running it.
  bool uses_sat = false;
  /// Pass consults the budget internally and may stop early (c2rs,
  /// resub, dch, mfs): a budget found exhausted right after such a pass
  /// ran is recorded as a degradation.
  bool budget_aware = false;
  std::function<void(FlowState&, const PassArgs&)> run;
};

/// Name -> pass table. `global()` holds the builtin flow passes
/// (balance, rewrite, refactor, resub, c2rs, dch, if, mfs, strash,
/// map); custom registries can be assembled via `add`.
class PassRegistry {
public:
  /// The builtin registry. Thread-safe to read; never mutated.
  static const PassRegistry& global();

  void add(Pass pass);
  const Pass* find(std::string_view name) const;
  /// All passes, sorted by name (for `cryoeda --list-passes`).
  std::vector<const Pass*> passes() const;

private:
  std::map<std::string, Pass, std::less<>> passes_;
};

/// One step of a compiled pipeline.
struct PassInvocation {
  const Pass* pass = nullptr;
  PassArgs args;
  /// Canonical rendering, e.g. "if -K 6 -p pad".
  std::string to_string() const;
};

/// A compiled recipe: an ordered pass sequence with validated arguments
/// and sequencing. Execute with `run`; print canonically with
/// `to_string` (the scenario artifact-cache key is built from it).
class Pipeline {
public:
  /// Compile a recipe string. Segments are ';'-separated, tokens
  /// whitespace-separated, empty segments ignored. Throws RecipeError
  /// with a precise diagnostic on an unknown pass, unknown/duplicate
  /// flag, missing/malformed/out-of-range value, or an invalid pass
  /// sequence (e.g. `mfs` without a preceding `if`).
  static Pipeline parse(std::string_view script,
                        const PassRegistry& registry = PassRegistry::global());

  /// Canonical recipe string: "c2rs; dch; if -K 6 -p pad; ...".
  std::string to_string() const;

  /// Execute the passes in order on `state`, wiring a `pass.<name>`
  /// obs span, a `pass.<name>.runs` counter, and a `pass.<name>.nodes`
  /// diagnostic gauge (AND nodes; LUTs while a cover is pending; gates
  /// after `map`) around every step. Throws RecipeError if a pass needs
  /// a matcher and `state.matcher` is null; propagates
  /// std::invalid_argument from option validation.
  ///
  /// Budget semantics (`state.budget`, or `util::Budget::global()`):
  ///  * cancellation throws cryo::Error{kBudget} at the next pass
  ///    boundary (and inside budget-aware kernels);
  ///  * a blown wall-clock deadline *degrades*: remaining optimization
  ///    passes are skipped — but `map` always runs, so the flow still
  ///    produces a netlist;
  ///  * an exhausted SAT-conflict ceiling skips only SAT-backed passes
  ///    (`uses_sat`: dch, mfs);
  ///  * a pass whose result exceeded the node-growth ceiling is reverted
  ///    to its input network;
  ///  * every skipped / stopped-early / reverted pass bumps
  ///    `pass.<name>.degraded`, surfaced in the report's `degradation`
  ///    section (absent from the signoff profile).
  ///
  /// Per-pass artifact caching (stage `core.pass` of the global
  /// `util::ArtifactCache`, gated by `state.use_pass_cache` and
  /// `CRYOEDA_PASS_CACHE`): each pass whose incoming state and result
  /// both round-trip through a snapshot (the AIG transforms and `dch` —
  /// not `if`/`mfs`/`strash`/`map`, whose states carry a pending LUT
  /// cover or a netlist) is keyed on {incoming `state_fingerprint`,
  /// canonical pass print, library fingerprint, the FlowOptions knobs
  /// passes read} and its resulting snapshot is stored after it runs.
  /// A later run walks the recipe front-to-back, restoring cached
  /// snapshots until the first miss or non-snapshotable pass — the
  /// longest cached prefix — and executes only the remainder. Restored
  /// passes bump `cache.pass_hits`; each failed probe bumps
  /// `cache.pass_misses`. Degraded passes are never stored (same rule
  /// as the scenario cache), and a corrupt or fingerprint-mismatched
  /// entry falls back to recomputation (`cache.corrupt`).
  void run(FlowState& state) const;

  const std::vector<PassInvocation>& sequence() const { return sequence_; }

private:
  std::vector<PassInvocation> sequence_;
};

/// The canonical recipe equivalent to `core::synthesize(options)`:
/// `c2rs[; dch]; if -K <lut_k> -p <priority>[; mfs]; strash;
/// map -p <priority>` (dch/mfs present per `use_choices`/`use_mfs`).
std::string canonical_recipe(const FlowOptions& options);

}  // namespace cryo::core
