#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells/catalog.hpp"
#include "cells/characterize.hpp"
#include "device/preset.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/artifact_cache.hpp"
#include "util/json.hpp"
#include "util/obs.hpp"

namespace {

using namespace cryo;
namespace fs = std::filesystem;
using util::Json;

// ---------------------------------------------------------------------
// protocol unit tests
// ---------------------------------------------------------------------

Json parse_json(const std::string& text) { return Json::parse(text); }

TEST(Protocol, ParseRequestAppliesDefaults) {
  const auto req =
      service::parse_request(parse_json(R"({"bench": "dec4"})"));
  EXPECT_EQ(req.op, "synth");
  EXPECT_EQ(req.bench, "dec4");
  EXPECT_TRUE(req.aiger_path.empty());
  EXPECT_TRUE(req.recipe.empty());
  EXPECT_DOUBLE_EQ(req.temp, 10.0);
  EXPECT_DOUBLE_EQ(req.vdd, 0.7);
  EXPECT_DOUBLE_EQ(req.deadline_s, 0.0);
  EXPECT_EQ(req.flow.priority, opt::CostPriority::kPowerDelayArea);
}

TEST(Protocol, ParseRequestReadsEveryField) {
  const auto req = service::parse_request(parse_json(
      R"({"op": "synth", "id": "j1", "bench": "adder8", "recipe": "c2rs; map",
          "priority": "pad", "temp": 300, "vdd": 0.8, "deadline_s": 2.5,
          "seed": 7})"));
  EXPECT_EQ(req.id, "j1");
  EXPECT_EQ(req.recipe, "c2rs; map");
  EXPECT_EQ(req.flow.priority, opt::CostPriority::kPowerAreaDelay);
  EXPECT_DOUBLE_EQ(req.temp, 300.0);
  EXPECT_DOUBLE_EQ(req.vdd, 0.8);
  EXPECT_DOUBLE_EQ(req.deadline_s, 2.5);
  EXPECT_EQ(req.flow.seed, 7u);
}

void expect_rejected(const std::string& request, const std::string& needle) {
  try {
    service::parse_request(parse_json(request));
    FAIL() << "expected Error{kRecipe} for " << request;
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRecipe) << request;
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(Protocol, ParseRequestRejectsBadRequests) {
  expect_rejected(R"({"bench": "dec4", "wat": 1})", "unknown field 'wat'");
  expect_rejected(R"({"bench": 42})", "must be a string");
  expect_rejected(R"({"temp": "cold", "bench": "dec4"})", "must be a number");
  expect_rejected(R"({"bench": "dec4", "aiger_path": "x.aig"})",
                  "exactly one");
  expect_rejected(R"({"op": "synth"})", "exactly one");
  expect_rejected(R"({"op": "fly"})", "unknown op");
  expect_rejected(R"({"bench": "dec4", "priority": "fastest"})",
                  "unknown priority");
  expect_rejected(R"({"bench": "dec4", "temp": -4})", "positive temperature");
  expect_rejected(R"({"bench": "dec4", "deadline_s": -1})", "deadline_s");
  expect_rejected(R"({"bench": "dec4", "seed": -1})", "non-negative");
  expect_rejected(R"({"bench": "dec4", "name": "p"})", "unknown field 'name'");
  expect_rejected(R"({"op": "load_plugin"})", "unknown op");
  expect_rejected(R"({"op": "ping", "bench": "dec4"})", "takes no bench");
  expect_rejected(R"([1, 2])", "must be a JSON object");
}

TEST(Protocol, DefaultLibPathMatchesCliConvention) {
  // The daemon and the one-shot CLI share these cache paths; the default
  // platform keeps its historical spelling.
  const auto lib_path = [](const std::string& dir, double temp, double vdd) {
    return cells::default_lib_path(dir, device::default_preset(), "builtin",
                                   temp, vdd);
  };
  EXPECT_EQ(lib_path("cryoeda_out", 10.0, 0.7),
            "cryoeda_out/cryoeda_lib_10K.lib");
  EXPECT_EQ(lib_path("cryoeda_out", 300.0, 0.7),
            "cryoeda_out/cryoeda_lib_300K.lib");
  EXPECT_EQ(lib_path("d", 77.0, 0.8), "d/cryoeda_lib_77K_0.8V.lib");
}

TEST(Protocol, ErrorReplyCarriesTheTaxonomy) {
  const Json reply = service::error_reply("j9", ErrorKind::kBudget, "late");
  EXPECT_EQ(reply.at("id").as_string(), "j9");
  EXPECT_EQ(reply.at("status").as_string(), "error");
  EXPECT_EQ(reply.at("error_kind").as_string(), "budget");
  EXPECT_EQ(reply.at("exit_code").as_int(), 4);
  EXPECT_EQ(reply.at("error").as_string(), "late");
}

// ---------------------------------------------------------------------
// server tests
// ---------------------------------------------------------------------

/// Shared suite state: one temp dir for liberty caches (characterized
/// once, reused by every server instance) and the process-global
/// artifact cache pointed at a sibling temp dir.
class ServiceTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    root_ = new fs::path{fs::temp_directory_path() /
                         ("cryoeda_test_service_" +
                          std::to_string(::getpid()))};
    fs::remove_all(*root_);
    fs::create_directories(*root_);
    util::ArtifactCache::Config config;
    config.root = *root_ / "cache";
    util::ArtifactCache::global().configure(std::move(config));
  }
  static void TearDownTestSuite() {
    util::ArtifactCache::global().configure(
        util::ArtifactCache::env_config());
    std::error_code ec;
    fs::remove_all(*root_, ec);
    delete root_;
    root_ = nullptr;
  }

  /// Cheap daemon config: mini catalog on a coarse grid (the test_flow
  /// characterization setup), single worker unless overridden.
  static service::ServeOptions cheap_options(int threads = 1) {
    service::ServeOptions options;
    options.threads = threads;
    options.lib_dir = (*root_ / "lib").string();
    options.catalog = cells::mini_catalog();
    options.char_options.slews = {4e-12, 16e-12, 48e-12};
    options.char_options.loads = {2e-16, 1e-15, 4e-15};
    options.char_options.include_sequential = false;
    return options;
  }

  static std::vector<Json> run_session(service::Server& server,
                                       const std::string& input,
                                       int* exit_code = nullptr) {
    std::istringstream in{input};
    std::ostringstream out;
    const int code = server.serve(in, out);
    if (exit_code != nullptr) {
      *exit_code = code;
    }
    std::vector<Json> replies;
    std::istringstream lines{out.str()};
    std::string line;
    while (std::getline(lines, line)) {
      replies.push_back(Json::parse(line));
    }
    return replies;
  }

  static fs::path* root_;
};

fs::path* ServiceTest::root_ = nullptr;

TEST_F(ServiceTest, ServesBatchWithWarmRepeatsAndByteIdenticalReports) {
  service::Server server{cheap_options()};
  const std::string batch =
      R"({"id": "a", "op": "ping"})"
      "\n"
      R"({"id": "b", "bench": "dec4", "priority": "pda"})"
      "\n"
      R"({"id": "c", "bench": "adder8", "priority": "pad"})"
      "\n"
      R"({"id": "d", "bench": "dec4", "priority": "pda"})"
      "\n";
  int code = -1;
  const auto replies = run_session(server, batch, &code);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].at("op").as_string(), "ping");
  for (std::size_t i = 1; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].at("status").as_string(), "ok")
        << replies[i].dump();
  }
  // Positional protocol: replies carry the request ids in order.
  EXPECT_EQ(replies[1].at("id").as_string(), "b");
  EXPECT_EQ(replies[2].at("id").as_string(), "c");
  EXPECT_EQ(replies[3].at("id").as_string(), "d");
  // Job d repeats job b: the scenario cache must serve it warm, the
  // corner must already be resident, and the report must round-trip
  // byte-identically through the cache.
  EXPECT_GE(replies[3].at("cache").at("scenario_hits").as_int(), 1);
  EXPECT_TRUE(replies[3].at("corner_warm").as_bool());
  EXPECT_FALSE(replies[1].at("corner_warm").as_bool());
  EXPECT_EQ(replies[1].at("report").dump(), replies[3].at("report").dump());
  // Report sanity: deterministic schema with real figures.
  const Json& report = replies[1].at("report");
  EXPECT_EQ(report.at("schema").as_string(), service::kJobReportSchema);
  EXPECT_EQ(report.at("design").at("name").as_string(), "dec4");
  EXPECT_GT(report.at("result").at("gates").as_int(), 0);
  EXPECT_GT(report.at("result").at("total_power_w").as_double(), 0.0);
  EXPECT_FALSE(report.at("result").at("degraded").as_bool());
}

TEST_F(ServiceTest, MalformedRequestsGetStructuredErrorsWithoutKillingIt) {
  service::Server server{cheap_options()};
  std::string oversized = R"({"bench": ")";
  oversized += std::string(service::kMaxRequestLine, 'x');
  oversized += R"("})";
  const std::string batch =
      R"({"id": "good1", "bench": "dec4"})"
      "\n"
      "this is not json\n"
      R"({"id": "bad-field", "bench": "dec4", "frobnicate": true})"
      "\n" +
      oversized + "\n" +
      R"({"id": "bad-bench", "bench": "no_such_circuit"})"
      "\n"
      R"({"id": "bad-recipe", "bench": "dec4", "recipe": "warp9; map"})"
      "\n"
      R"({"id": "good2", "bench": "dec4"})"
      "\n";
  int code = -1;
  const auto replies = run_session(server, batch, &code);
  EXPECT_EQ(code, 0) << "protocol errors must not fail the session";
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0].at("status").as_string(), "ok");
  EXPECT_EQ(replies[6].at("status").as_string(), "ok");
  for (const std::size_t i : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(replies[i].at("status").as_string(), "error") << i;
    EXPECT_EQ(replies[i].at("error_kind").as_string(), "recipe") << i;
    EXPECT_EQ(replies[i].at("exit_code").as_int(), 2) << i;
  }
  EXPECT_NE(replies[1].at("error").as_string().find("malformed JSON"),
            std::string::npos);
  EXPECT_NE(replies[2].at("error").as_string().find("frobnicate"),
            std::string::npos);
  EXPECT_NE(replies[3].at("error").as_string().find("exceeds"),
            std::string::npos);
  // Parse errors cannot echo an id; field errors can.
  EXPECT_EQ(replies[2].at("id").as_string(), "bad-field");
  EXPECT_EQ(replies[5].at("id").as_string(), "bad-recipe");
}

TEST_F(ServiceTest, BudgetExhaustedJobFailsAloneMidBatch) {
  service::Server server{cheap_options()};
  // Job "slow" needs a *cold* corner (47 K is used by no other test), so
  // its microscopic deadline expires inside characterization — which
  // cannot degrade and must abort with kBudget. Its neighbors run at the
  // shared 10 K corner and must be untouched.
  const std::string batch =
      R"({"id": "before", "bench": "dec4"})"
      "\n"
      R"({"id": "slow", "bench": "dec4", "temp": 47, "deadline_s": 1e-09})"
      "\n"
      R"({"id": "after", "bench": "adder8"})"
      "\n";
  int code = -1;
  const auto replies = run_session(server, batch, &code);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].at("status").as_string(), "ok");
  EXPECT_EQ(replies[1].at("status").as_string(), "error");
  EXPECT_EQ(replies[1].at("error_kind").as_string(), "budget");
  EXPECT_EQ(replies[1].at("exit_code").as_int(), 4);
  EXPECT_EQ(replies[2].at("status").as_string(), "ok");
}

TEST_F(ServiceTest, ShutdownDrainsAcknowledgesAndStopsReading) {
  service::Server server{cheap_options()};
  const std::string batch =
      R"({"id": "j", "bench": "dec4"})"
      "\n"
      R"({"id": "bye", "op": "shutdown"})"
      "\n"
      R"({"id": "never", "bench": "dec4"})"
      "\n";
  int code = -1;
  const auto replies = run_session(server, batch, &code);
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(server.shutdown_requested());
  ASSERT_EQ(replies.size(), 2u) << "requests after shutdown must be ignored";
  EXPECT_EQ(replies[0].at("id").as_string(), "j");
  EXPECT_EQ(replies[1].at("id").as_string(), "bye");
  EXPECT_EQ(replies[1].at("op").as_string(), "shutdown");
}

TEST_F(ServiceTest, RepliesStayInRequestOrderUnderConcurrency) {
  service::Server server{cheap_options(/*threads=*/4)};
  std::string batch;
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    const std::string bench = (i % 2 == 0) ? "dec4" : "adder8";
    const std::string id = "job" + std::to_string(i);
    ids.push_back(id);
    batch += R"({"id": ")" + id + R"(", "bench": ")" + bench + R"("})" "\n";
  }
  const auto replies = run_session(server, batch);
  ASSERT_EQ(replies.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(replies[i].at("id").as_string(), ids[i]);
    EXPECT_EQ(replies[i].at("status").as_string(), "ok");
  }
}

TEST_F(ServiceTest, HalfClosedSocketClientStillGetsItsReplies) {
  service::Server server{cheap_options()};
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  int code = -1;
  std::thread daemon{[&] { code = server.serve_fd(sv[1], sv[1]); }};
  const std::string batch =
      R"({"id": "s1", "bench": "dec4"})"
      "\n"
      R"({"id": "s2", "op": "ping"})"
      "\n";
  ASSERT_EQ(::write(sv[0], batch.data(), batch.size()),
            static_cast<ssize_t>(batch.size()));
  // Half-close: no more requests, but the reply direction stays open.
  ASSERT_EQ(::shutdown(sv[0], SHUT_WR), 0);
  std::string received;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(sv[0], buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    received.append(buf, static_cast<std::size_t>(n));
    // Two complete reply lines are all this session produces.
    if (std::count(received.begin(), received.end(), '\n') >= 2) {
      break;
    }
  }
  daemon.join();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(code, 0);
  std::vector<Json> replies;
  std::istringstream lines{received};
  std::string line;
  while (std::getline(lines, line)) {
    replies.push_back(Json::parse(line));
  }
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].at("id").as_string(), "s1");
  EXPECT_EQ(replies[0].at("status").as_string(), "ok");
  EXPECT_EQ(replies[1].at("op").as_string(), "ping");
}

TEST_F(ServiceTest, StatsReportsServiceCounters) {
  service::Server server{cheap_options()};
  const auto replies = run_session(
      server,
      R"({"id": "q", "bench": "dec4"})"
      "\n"
      R"({"id": "s", "op": "stats"})"
      "\n");
  ASSERT_EQ(replies.size(), 2u);
  const Json& report = replies[1].at("report");
  EXPECT_GE(report.at("counters").at("service.jobs").as_int(), 1);
}

}  // namespace
