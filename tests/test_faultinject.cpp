// Tests of the robustness layer: the cryo::Error taxonomy and its exit
// codes, the deterministic util::faultinject registry (spec parsing,
// every-N / once@K arithmetic, per-site counters), every fault site the
// flow wires (cache I/O, liberty parsing, SAT, SPICE, characterization,
// fleet workers), util::Budget degradation semantics through the pass
// pipeline and the SAT sweep, and fleet fault isolation — one injected
// scenario failure must not disturb its sibling scenarios' figures.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "core/experiment.hpp"
#include "core/flow.hpp"
#include "core/pipeline.hpp"
#include "core/search.hpp"
#include "epfl/benchmarks.hpp"
#include "liberty/library.hpp"
#include "logic/aig.hpp"
#include "logic/simulate.hpp"
#include "map/mapper.hpp"
#include "sat/solver.hpp"
#include "sat/sweep.hpp"
#include "spice/circuit.hpp"
#include "spice/simulator.hpp"
#include "util/artifact_cache.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/obs.hpp"

namespace {

using namespace cryo;
namespace fs = std::filesystem;
namespace obs = util::obs;
namespace fi = util::faultinject;
using util::ArtifactCache;
using util::Json;

/// Arms a fault spec for the duration of one test and disarms on exit —
/// the registry is process-global and tests share one binary.
class ScopedFaults {
public:
  explicit ScopedFaults(const std::string& spec) { fi::configure(spec); }
  ~ScopedFaults() { fi::configure(""); }
};

/// Unique per-test cache root under the system temp dir (tests may run
/// concurrently under ctest -j, so the path mixes in the pid).
class ScopedCacheDir {
public:
  explicit ScopedCacheDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("cryoeda_fi_" + tag + "_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
  }
  ~ScopedCacheDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

private:
  fs::path path_;
};

class FaultInjectTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
    fi::configure("");
  }
  void TearDown() override { fi::configure(""); }
};

// ---------------------------------------------------------------------------
// Error taxonomy: golden messages and exit codes
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, KindNamesAreStable) {
  EXPECT_EQ(error_kind_name(ErrorKind::kRecipe), "recipe");
  EXPECT_EQ(error_kind_name(ErrorKind::kIo), "io");
  EXPECT_EQ(error_kind_name(ErrorKind::kBudget), "budget");
  EXPECT_EQ(error_kind_name(ErrorKind::kNumeric), "numeric");
  EXPECT_EQ(error_kind_name(ErrorKind::kInternal), "internal");
}

TEST(ErrorTaxonomy, ExitCodesAreDistinctAndStable) {
  EXPECT_EQ(error_exit_code(ErrorKind::kInternal), 1);
  EXPECT_EQ(error_exit_code(ErrorKind::kRecipe), 2);
  EXPECT_EQ(error_exit_code(ErrorKind::kIo), 3);
  EXPECT_EQ(error_exit_code(ErrorKind::kBudget), 4);
  EXPECT_EQ(error_exit_code(ErrorKind::kNumeric), 5);
}

TEST(ErrorTaxonomy, WhatCarriesTheKindPrefix) {
  const Error e{ErrorKind::kBudget, "cancelled in pass.mfs"};
  EXPECT_STREQ(e.what(), "budget: cancelled in pass.mfs");
  EXPECT_EQ(e.kind(), ErrorKind::kBudget);
  // The taxonomy survives a plain std::exception catch.
  try {
    throw Error{ErrorKind::kNumeric, "Newton failed"};
  } catch (const std::exception& plain) {
    EXPECT_STREQ(plain.what(), "numeric: Newton failed");
  }
}

/// The fields `core::isolate` fills, as every fleet entry carries them.
struct IsolatedEntry {
  bool ok = true;
  std::string error;
  std::string error_kind;
};

TEST(ErrorTaxonomy, DescribeAndIsolateClassifyEveryFailure) {
  obs::set_enabled(true);
  obs::reset();
  struct Case {
    std::function<void()> raise;
    std::string what;
    std::string kind;
    int exit_code;
  };
  const std::vector<Case> cases = {
      {[] { throw Error{ErrorKind::kRecipe, "bad flag"}; },
       "recipe: bad flag", "recipe", 2},
      {[] { throw Error{ErrorKind::kIo, "no file"}; }, "io: no file", "io", 3},
      {[] { throw Error{ErrorKind::kBudget, "late"}; }, "budget: late",
       "budget", 4},
      {[] { throw Error{ErrorKind::kNumeric, "diverged"}; },
       "numeric: diverged", "numeric", 5},
      {[] { throw Error{ErrorKind::kInternal, "broken"}; },
       "internal: broken", "internal", 1},
      {[] { throw core::RecipeError{"unknown pass 'warp9'"}; },
       "unknown pass 'warp9'", "recipe", 2},
      {[] { throw std::runtime_error{"plain"}; }, "plain", "internal", 1},
  };
  std::uint64_t isolated = 0;
  for (const Case& c : cases) {
    try {
      c.raise();
      FAIL() << "case " << c.what << " did not throw";
    } catch (const std::exception& e) {
      const core::Failure failure = core::describe(e);
      EXPECT_EQ(failure.error, c.what);
      EXPECT_EQ(failure.error_kind(), c.kind) << c.what;
      EXPECT_EQ(failure.exit_code(), c.exit_code) << c.what;
    }

    IsolatedEntry entry;
    if (c.kind == "budget") {
      // An exhausted budget stops the whole run: never isolated.
      EXPECT_THROW(core::isolate(entry, "test.isolated", c.raise), Error);
      EXPECT_TRUE(entry.ok);
      EXPECT_TRUE(entry.error.empty());
    } else {
      core::isolate(entry, "test.isolated", c.raise);
      ++isolated;
      EXPECT_FALSE(entry.ok) << c.what;
      EXPECT_EQ(entry.error, c.what);
      EXPECT_EQ(entry.error_kind, c.kind);
    }
    EXPECT_EQ(obs::counter("test.isolated").get(), isolated) << c.what;
  }

  // A body that returns normally leaves the entry and the counter alone.
  IsolatedEntry clean;
  core::isolate(clean, "test.isolated", [] {});
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(obs::counter("test.isolated").get(), isolated);
}

// ---------------------------------------------------------------------------
// Spec parsing and arrival arithmetic
// ---------------------------------------------------------------------------

void expect_spec_error(const std::string& spec, const std::string& needle) {
  try {
    fi::configure(spec);
    FAIL() << "expected Error{kRecipe} for spec: " << spec;
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRecipe);
    const std::string what = e.what();
    EXPECT_NE(what.find("CRYOEDA_FAULTS"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos)
        << "message '" << what << "' lacks '" << needle << "'";
  }
  fi::configure("");
}

TEST_F(FaultInjectTest, MalformedSpecsAreRecipeErrors) {
  expect_spec_error("bogus", "missing '='");
  expect_spec_error("no.such.site=every-2", "unknown site");
  expect_spec_error("no.such.site=every-2", "cache.read");  // lists known
  expect_spec_error("sat.solve=sometimes", "bad mode");
  expect_spec_error("sat.solve=every-0", "bad count");
  expect_spec_error("sat.solve=every-x", "bad count");
  expect_spec_error("sat.solve=once@", "bad count");
  expect_spec_error("sat.solve=every-2,sat.solve=once@1", "duplicate site");
}

TEST_F(FaultInjectTest, DegenerateCountsAreRejectedNotSilentNoOps) {
  // once@0 can never match an arrival ordinal (they start at 1) and
  // every-0 would divide by zero in the arrival check: both must be
  // rejected up front rather than armed as faults that never fire.
  expect_spec_error("sat.solve=once@0", "bad count");
  expect_spec_error("sat.solve=every-0", "bad count");
  // strtoull quietly *accepts* negative counts by wrapping them to the
  // top of the uint64 range — an injection that would silently never
  // fire. Same for values past 2^64-1, which saturate with only errno
  // raised. Both are spec bugs and must fail loudly.
  expect_spec_error("sat.solve=every--1", "bad count");
  expect_spec_error("sat.solve=once@-3", "bad count");
  expect_spec_error("sat.solve=every-18446744073709551616", "bad count");
  expect_spec_error("sat.solve=once@99999999999999999999999", "bad count");
  // Stray sign/space characters are not part of a count either.
  expect_spec_error("sat.solve=every-+2", "bad count");
}

TEST_F(FaultInjectTest, DisarmedRegistryNeverFires) {
  EXPECT_FALSE(fi::armed());
  for (const std::string& site : fi::known_sites()) {
    EXPECT_FALSE(fi::should_fail(site)) << site;
  }
}

TEST_F(FaultInjectTest, EveryNthArrivalFiresDeterministically) {
  const ScopedFaults faults{"sat.solve=every-3"};
  EXPECT_TRUE(fi::armed());
  for (int arrival = 1; arrival <= 9; ++arrival) {
    EXPECT_EQ(fi::should_fail("sat.solve"), arrival % 3 == 0)
        << "arrival " << arrival;
  }
  EXPECT_EQ(fi::injected("sat.solve"), 3u);
  // Unlisted sites stay silent even while the registry is armed.
  EXPECT_FALSE(fi::should_fail("cache.read"));
  EXPECT_EQ(fi::injected("cache.read"), 0u);
}

TEST_F(FaultInjectTest, OnceAtKFiresExactlyTheKthArrival) {
  const ScopedFaults faults{" spice.solve = once@2 "};  // whitespace ok
  EXPECT_FALSE(fi::should_fail("spice.solve"));
  EXPECT_TRUE(fi::should_fail("spice.solve"));
  for (int arrival = 3; arrival <= 6; ++arrival) {
    EXPECT_FALSE(fi::should_fail("spice.solve")) << "arrival " << arrival;
  }
  EXPECT_EQ(fi::injected("spice.solve"), 1u);
  // `configure` resets all arrival counters.
  fi::configure("spice.solve=once@1");
  EXPECT_TRUE(fi::should_fail("spice.solve"));
}

TEST_F(FaultInjectTest, MaybeFailThrowsTheGoldenClassifiedError) {
  const ScopedFaults faults{"liberty.parse=every-1"};
  try {
    fi::maybe_fail("liberty.parse", ErrorKind::kIo);
    FAIL() << "expected an injected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_STREQ(e.what(), "io: injected fault at liberty.parse");
  }
  // Each firing is also observable as a counter.
  EXPECT_EQ(obs::counter("fault.liberty.parse.injected").get(), 1u);
}

// ---------------------------------------------------------------------------
// Cache sites: transient retry, exhausted retry, corruption quarantine
// ---------------------------------------------------------------------------

Json sample_value() {
  Json value = Json::object();
  value["answer"] = Json{42.0};
  return value;
}

TEST_F(FaultInjectTest, CacheReadRetriesTransientFaultAndHits) {
  const ScopedCacheDir dir{"read_retry"};
  ArtifactCache cache{{true, dir.path(), 1 << 20}};
  const std::string key = ArtifactCache::key("stage", sample_value());
  cache.store("stage", key, sample_value());

  const ScopedFaults faults{"cache.read=once@1"};
  const auto hit = cache.load("stage", key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), sample_value().dump());
  EXPECT_GE(obs::counter("cache.retries").get(), 1u);
  EXPECT_EQ(obs::counter("cache.errors").get(), 0u);
}

TEST_F(FaultInjectTest, CacheReadExhaustedRetriesDegradeToAMiss) {
  const ScopedCacheDir dir{"read_exhaust"};
  ArtifactCache cache{{true, dir.path(), 1 << 20}};
  const std::string key = ArtifactCache::key("stage", sample_value());
  cache.store("stage", key, sample_value());

  const ScopedFaults faults{"cache.read=every-1"};  // every attempt fails
  EXPECT_FALSE(cache.load("stage", key).has_value());
  EXPECT_GE(obs::counter("cache.retries").get(), 3u);
  EXPECT_GE(obs::counter("cache.errors").get(), 1u);
  // The entry itself is intact: a fault-free load still hits.
  fi::configure("");
  EXPECT_TRUE(cache.load("stage", key).has_value());
}

TEST_F(FaultInjectTest, CacheWriteRetriesTransientFault) {
  const ScopedCacheDir dir{"write_retry"};
  ArtifactCache cache{{true, dir.path(), 1 << 20}};
  const std::string key = ArtifactCache::key("stage", sample_value());

  {
    const ScopedFaults faults{"cache.write=once@1"};
    cache.store("stage", key, sample_value());
    EXPECT_GE(obs::counter("cache.retries").get(), 1u);
  }
  const auto hit = cache.load("stage", key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dump(), sample_value().dump());
}

TEST_F(FaultInjectTest, CorruptedEntryIsQuarantinedNotDeleted) {
  const ScopedCacheDir dir{"quarantine"};
  ArtifactCache cache{{true, dir.path(), 1 << 20}};
  const std::string key = ArtifactCache::key("stage", sample_value());
  cache.store("stage", key, sample_value());

  {
    // cache.corrupt flips a byte of a *successfully read* entry.
    const ScopedFaults faults{"cache.corrupt=every-1"};
    EXPECT_FALSE(cache.load("stage", key).has_value());
  }
  EXPECT_GE(obs::counter("cache.corrupt").get(), 1u);
  EXPECT_EQ(obs::counter("cache.quarantined").get(), 1u);
  // The damaged entry moved into quarantine/ for post-mortem...
  const fs::path moved =
      dir.path() / "quarantine" / ("stage-" + key + ".json");
  EXPECT_TRUE(fs::exists(moved));
  // ...and is gone from the cache proper: the next load is a clean miss.
  EXPECT_FALSE(fs::exists(cache.entry_path("stage", key)));
  EXPECT_FALSE(cache.load("stage", key).has_value());
}

// ---------------------------------------------------------------------------
// Kernel sites: liberty, SAT, SPICE, characterization
// ---------------------------------------------------------------------------

TEST_F(FaultInjectTest, LibertyParseSiteThrowsIo) {
  const std::string text = "library (l) { }";
  EXPECT_NO_THROW((void)liberty::parse_liberty(text));
  const ScopedFaults faults{"liberty.parse=once@1"};
  try {
    (void)liberty::parse_liberty(text);
    FAIL() << "expected an injected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_STREQ(e.what(), "io: injected fault at liberty.parse");
  }
  // once@1 consumed: the next parse succeeds.
  EXPECT_NO_THROW((void)liberty::parse_liberty(text));
}

TEST_F(FaultInjectTest, SatSolveSiteReturnsUnknown) {
  const ScopedFaults faults{"sat.solve=once@1"};
  sat::Solver solver;
  const sat::Var a = solver.new_var();
  solver.add_clause(sat::mk_lit(a));
  EXPECT_EQ(solver.solve(), sat::Status::kUnknown);
  EXPECT_EQ(solver.solve(), sat::Status::kSat);  // solver stays usable
  EXPECT_TRUE(solver.model_value(a));
}

TEST_F(FaultInjectTest, SpiceSolveSiteThrowsNumeric) {
  spice::Circuit ckt;
  const spice::NodeId in = ckt.add_node("in");
  const spice::NodeId out = ckt.add_node("out");
  ckt.add_res(in, out, 1e3);
  ckt.add_cap(out, spice::kGround, 1e-15);
  ckt.set_source(in, spice::Pwl::constant(1.0));
  spice::Simulator sim{ckt, 300.0};
  spice::TransientOptions opt;
  opt.t_stop = 1e-12;
  opt.steps = 10;

  const ScopedFaults faults{"spice.solve=once@1"};
  try {
    (void)sim.transient(opt, {out});
    FAIL() << "expected an injected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNumeric);
    EXPECT_STREQ(e.what(), "numeric: injected fault at spice.solve");
  }
  EXPECT_NO_THROW((void)sim.transient(opt, {out}));
}

TEST_F(FaultInjectTest, CharacterizeSiteAbortsTheWholeLibrary) {
  cells::CharOptions options;
  options.slews = {4e-12};
  options.loads = {1e-15};
  options.include_sequential = false;
  options.threads = 1;
  // Characterization must not degrade to a partial library: the injected
  // worker failure propagates out of the parallel fleet.
  const ScopedFaults faults{"cells.characterize=once@1"};
  try {
    (void)cells::characterize(cells::mini_catalog(), 300.0, options);
    FAIL() << "expected an injected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    EXPECT_STREQ(e.what(), "internal: injected fault at cells.characterize");
  }
}

// ---------------------------------------------------------------------------
// Budget semantics: degradation, cancellation, growth ceiling
// ---------------------------------------------------------------------------

class BudgetTest : public FaultInjectTest {};

TEST_F(BudgetTest, SatCeilingZeroSkipsSatPassesButFlowCompletes) {
  util::Budget budget;
  budget.set_sat_conflict_ceiling(0);  // exhausted from the start
  EXPECT_TRUE(budget.sat_exhausted());

  core::FlowState state;
  state.aig = epfl::make_adder(8);
  state.options = core::FlowOptions{};
  state.budget = &budget;
  core::Pipeline::parse("c2rs; dch; if -K 6; mfs; strash").run(state);

  EXPECT_TRUE(state.saw_strash);  // flow ran end to end
  EXPECT_GT(state.aig.num_ands(), 0u);
  EXPECT_GE(obs::counter("pass.dch.degraded").get(), 1u);
  EXPECT_GE(obs::counter("pass.mfs.degraded").get(), 1u);
  EXPECT_EQ(obs::counter("pass.dch.runs").get(), 0u);  // skipped, not run
  EXPECT_EQ(obs::counter("pass.mfs.runs").get(), 0u);
  // Non-SAT passes are untouched by the SAT ceiling.
  EXPECT_EQ(obs::counter("pass.c2rs.degraded").get(), 0u);
  EXPECT_EQ(obs::counter("pass.c2rs.runs").get(), 1u);
}

TEST_F(BudgetTest, CancellationThrowsBudgetErrorAtThePassBoundary) {
  util::Budget budget;
  budget.cancel();
  core::FlowState state;
  state.aig = epfl::make_adder(4);
  state.options = core::FlowOptions{};
  state.budget = &budget;
  try {
    core::Pipeline::parse("c2rs").run(state);
    FAIL() << "expected Error{kBudget}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBudget);
    EXPECT_NE(std::string{e.what()}.find("cancelled in pass.c2rs"),
              std::string::npos)
        << e.what();
  }
  budget.reset();
  EXPECT_FALSE(budget.cancelled());
  EXPECT_NO_THROW(core::Pipeline::parse("c2rs").run(state));
}

TEST_F(BudgetTest, NodeGrowthCeilingRevertsAnInflatingPass) {
  util::Budget budget;
  // A ceiling below 1.0 rejects any transform that fails to shrink the
  // network by that factor — guaranteed to trip on a tiny adder.
  budget.set_node_growth_limit(1e-6);
  core::FlowState state;
  state.aig = epfl::make_adder(8);
  state.options = core::FlowOptions{};
  state.budget = &budget;
  const unsigned before = state.aig.num_ands();
  core::Pipeline::parse("c2rs").run(state);
  EXPECT_EQ(state.aig.num_ands(), before);  // result reverted
  EXPECT_GE(obs::counter("pass.c2rs.degraded").get(), 1u);
  EXPECT_EQ(obs::counter("pass.c2rs.runs").get(), 1u);  // it did run
}

TEST_F(BudgetTest, SweepUnderExhaustedBudgetKeepsClassesUnmerged) {
  // Two structurally different builds of the same function: a normal
  // sweep merges them; an exhausted budget must leave them unmerged but
  // still return a valid, equivalent AIG.
  logic::Aig aig;
  const auto a = aig.add_pi();
  const auto b = aig.add_pi();
  const auto c = aig.add_pi();
  aig.add_po(aig.land(aig.land(a, b), c), "x");
  aig.add_po(aig.land(a, aig.land(b, c)), "y");

  util::Budget budget;
  budget.set_sat_conflict_ceiling(0);
  sat::SweepOptions options;
  options.budget = &budget;
  const auto degraded = sat::sat_sweep(aig, options);
  EXPECT_EQ(degraded.merged, 0u);
  EXPECT_GE(degraded.unresolved, 1u);
  EXPECT_TRUE(logic::simulate_equal(aig, degraded.aig.cleanup()));

  budget.reset();
  const auto clean = sat::sat_sweep(aig, options);
  EXPECT_GE(clean.merged, 1u);
}

TEST_F(BudgetTest, SolveStatsDistinguishLimitFromBudget) {
  // Pigeonhole PHP(4, 3): UNSAT, needs real search — one conflict is
  // never enough, so a per-call limit of 1 must come back kUnknown with
  // hit_conflict_limit set (and no budget involved).
  const int holes = 3;
  sat::Solver solver;
  std::vector<std::vector<sat::Var>> at(holes + 1);
  for (int p = 0; p <= holes; ++p) {
    for (int h = 0; h < holes; ++h) {
      at[p].push_back(solver.new_var());
    }
  }
  for (int p = 0; p <= holes; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(sat::mk_lit(at[p][h]));
    }
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p <= holes; ++p) {
      for (int q = p + 1; q <= holes; ++q) {
        solver.add_clause(sat::mk_lit(at[p][h], true),
                          sat::mk_lit(at[q][h], true));
      }
    }
  }
  EXPECT_EQ(solver.solve({}, /*conflict_limit=*/1), sat::Status::kUnknown);
  EXPECT_TRUE(solver.last_stats().hit_conflict_limit);
  EXPECT_FALSE(solver.last_stats().budget_exhausted);

  util::Budget budget;
  budget.set_sat_conflict_ceiling(0);
  solver.set_budget(&budget);
  EXPECT_EQ(solver.solve(), sat::Status::kUnknown);
  EXPECT_TRUE(solver.last_stats().budget_exhausted);
  EXPECT_FALSE(solver.last_stats().hit_conflict_limit);

  solver.set_budget(nullptr);
  EXPECT_EQ(solver.solve(), sat::Status::kUnsat);
}

TEST_F(BudgetTest, SatConflictBudgetOptionIsValidated) {
  core::FlowOptions options;
  EXPECT_EQ(options.sat_conflict_budget, 500);
  EXPECT_NO_THROW(core::validate(options));
  options.sat_conflict_budget = -1;  // unlimited
  EXPECT_NO_THROW(core::validate(options));
  options.sat_conflict_budget = 1;
  EXPECT_NO_THROW(core::validate(options));
  options.sat_conflict_budget = 0;
  EXPECT_THROW(core::validate(options), std::invalid_argument);
  options.sat_conflict_budget = -2;
  EXPECT_THROW(core::validate(options), std::invalid_argument);
}

TEST_F(BudgetTest, DegradationSectionAppearsOnlyOutsideSignoff) {
  obs::counter("pass.dch.degraded").add();
  obs::counter("cache.retries").add(2);
  obs::counter("pass.if.runs").add();  // not a degradation counter
  const Json full = obs::report_json({});
  EXPECT_NE(full.dump(2).find("\"degradation\""), std::string::npos);
  const Json& degradation = full.at("degradation");
  EXPECT_EQ(degradation.at("pass.dch.degraded").as_int(), 1);
  EXPECT_EQ(degradation.at("cache.retries").as_int(), 2);
  EXPECT_EQ(degradation.members().size(), 2u);
  // The signoff profile must stay byte-identical across degraded and
  // clean runs of equal quality, so it carries no degradation section.
  const std::string signoff =
      obs::report_json(obs::ReportOptions::signoff()).dump(2);
  EXPECT_EQ(signoff.find("\"degradation\""), std::string::npos);
  // And an all-clean report omits the section entirely.
  obs::reset();
  EXPECT_EQ(obs::report_json({}).dump(2).find("\"degradation\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet fault isolation: one failing scenario must not sink its siblings
// ---------------------------------------------------------------------------

class FleetIsolation : public FaultInjectTest {
protected:
  static void SetUpTestSuite() {
    fi::configure("");  // the library build must run fault-free
    cells::CharOptions options;
    options.slews = {4e-12, 16e-12, 48e-12};
    options.loads = {2e-16, 1e-15, 4e-15};
    options.include_sequential = false;
    lib_ = new liberty::Library(
        cells::characterize(cells::mini_catalog(), 300.0, options));
    matcher_ = new map::CellMatcher(*lib_);
  }
  static void TearDownTestSuite() {
    delete matcher_;
    delete lib_;
    matcher_ = nullptr;
    lib_ = nullptr;
  }
  static liberty::Library* lib_;
  static map::CellMatcher* matcher_;
};

liberty::Library* FleetIsolation::lib_ = nullptr;
map::CellMatcher* FleetIsolation::matcher_ = nullptr;

TEST_F(FleetIsolation, MidFleetScenarioFailureLeavesSiblingsExact) {
  const auto suite = epfl::mini_suite();
  const auto& bench = suite[2];  // dec4: small, fast
  core::ExperimentOptions options;
  options.threads = 1;  // serial: scenario arrival order is fixed

  const auto clean = core::compare_circuit(bench, *matcher_, options);
  ASSERT_TRUE(clean.ok());

  // Scenarios run in order baseline, pad, pda — once@2 fails `pad`.
  obs::reset();
  const ScopedFaults faults{"core.scenario=once@2"};
  const auto faulted = core::compare_circuit(bench, *matcher_, options);

  EXPECT_TRUE(faulted.baseline.ok);
  EXPECT_FALSE(faulted.pad.ok);
  EXPECT_TRUE(faulted.pda.ok);
  EXPECT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.pad.error, "internal: injected fault at core.scenario");
  EXPECT_EQ(faulted.pad.error_kind, "internal");
  EXPECT_EQ(faulted.pad.total_power, 0.0);
  EXPECT_EQ(obs::counter("fleet.scenario_errors").get(), 1u);

  // The surviving siblings carry the exact figures of the clean run:
  // the failure is isolated, not smeared into normalization.
  EXPECT_EQ(faulted.baseline.delay, clean.baseline.delay);
  EXPECT_EQ(faulted.baseline.area, clean.baseline.area);
  EXPECT_EQ(faulted.pda.delay, clean.pda.delay);
  EXPECT_EQ(faulted.pda.area, clean.pda.area);
  EXPECT_EQ(faulted.pda.gates, clean.pda.gates);

  // Failed-side comparisons render as "no change", never NaN/inf.
  EXPECT_EQ(faulted.power_saving_pad(), 0.0);
  EXPECT_EQ(faulted.delay_overhead_pad(), 0.0);
  EXPECT_GT(faulted.power_saving_pda(), -1.0);  // real figure, pda is ok
}

TEST_F(FleetIsolation, FailingSearchVariantIsRecordedInItsTrial) {
  const auto suite = epfl::mini_suite();
  core::SearchOptions options;
  options.experiment.threads = 1;  // serial: variant arrival order is fixed
  options.variants = 3;

  // The first variant's scenario throws; the other two still run.
  const ScopedFaults faults{"core.scenario=once@1"};
  const auto results = core::search_recipes({suite[2]}, *matcher_, options);

  ASSERT_EQ(results.size(), 1u);
  const auto& trials = results[0].trials;
  ASSERT_EQ(trials.size(), 3u);
  EXPECT_FALSE(trials[0].result.ok);
  EXPECT_EQ(trials[0].result.error, "internal: injected fault at core.scenario");
  EXPECT_EQ(trials[0].result.error_kind, "internal");
  EXPECT_TRUE(trials[1].result.ok);
  EXPECT_TRUE(trials[2].result.ok);
  EXPECT_GE(results[0].best, 1);
  EXPECT_EQ(obs::counter("search.variant_errors").get(), 1u);
  EXPECT_EQ(obs::counter("search.variants_run").get(), 3u);
}

TEST_F(FleetIsolation, BudgetCancellationIsNotIsolated) {
  // Budget exhaustion is a property of the whole run, not of one
  // scenario: the fleet must rethrow it instead of recording a row.
  const auto suite = epfl::mini_suite();
  const auto& bench = suite[2];
  core::ExperimentOptions options;
  options.threads = 1;
  util::Budget::global().cancel();
  try {
    (void)core::compare_circuit(bench, *matcher_, options);
    util::Budget::global().reset();
    FAIL() << "expected Error{kBudget}";
  } catch (const Error& e) {
    util::Budget::global().reset();
    EXPECT_EQ(e.kind(), ErrorKind::kBudget);
  }
}

TEST_F(FleetIsolation, DeadlineDegradesOptimizationButMapStillRuns) {
  const auto suite = epfl::mini_suite();
  const auto& bench = suite[2];
  util::Budget budget;
  budget.set_deadline_in(0.0);  // already blown
  EXPECT_TRUE(budget.deadline_exceeded());

  core::FlowState state;
  state.aig = bench.aig;
  state.matcher = matcher_;
  state.options = core::FlowOptions{};
  state.budget = &budget;
  core::Pipeline::parse(core::canonical_recipe(state.options)).run(state);

  // Every optimization pass degraded, but the flow still produced a
  // netlist: `map` is exempt from deadline skipping by design.
  EXPECT_TRUE(state.has_netlist);
  EXPECT_GT(state.netlist.gate_count(), 0u);
  EXPECT_GE(obs::counter("pass.c2rs.degraded").get(), 1u);
  EXPECT_GE(obs::counter("pass.dch.degraded").get(), 1u);
  EXPECT_GE(obs::counter("pass.if.degraded").get(), 1u);
  EXPECT_EQ(obs::counter("pass.map.degraded").get(), 0u);
  EXPECT_EQ(obs::counter("pass.map.runs").get(), 1u);
}

TEST_F(FleetIsolation, DegradedRunsNeverPoisonTheScenarioCache) {
  // The scenario cache key covers inputs only, not the budget state: a
  // budget-starved run must not store its (lower-quality) figures where
  // a later unbudgeted run would load them as authoritative.
  const auto suite = epfl::mini_suite();
  const auto& bench = suite[2];
  core::ExperimentOptions options;
  options.threads = 1;

  const ScopedCacheDir dir{"degraded_poison"};
  auto& cache = ArtifactCache::global();
  cache.configure({true, dir.path(), 1 << 20});

  util::Budget::global().set_sat_conflict_ceiling(0);
  (void)core::compare_circuit(bench, *matcher_, options);
  util::Budget::global().reset();

  // All three scenarios degraded (dch/mfs skipped): nothing stored.
  EXPECT_GE(obs::counter("cache.degraded_skips").get(), 3u);
  EXPECT_EQ(obs::counter("cache.core.scenario.stores").get(), 0u);

  // An unbudgeted run now computes full-quality figures, stores them,
  // and a warm rerun serves those — bit-identical.
  const auto clean = core::compare_circuit(bench, *matcher_, options);
  EXPECT_EQ(obs::counter("cache.core.scenario.stores").get(), 3u);
  const auto warm = core::compare_circuit(bench, *matcher_, options);
  cache.configure({false, {}, 0});
  EXPECT_EQ(obs::counter("cache.core.scenario.hits").get(), 3u);
  EXPECT_EQ(warm.baseline.delay, clean.baseline.delay);
  EXPECT_EQ(warm.pad.total_power, clean.pad.total_power);
  EXPECT_EQ(warm.pda.gates, clean.pda.gates);
}

}  // namespace
