#include "service/server.hpp"

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <istream>
#include <ostream>
#include <streambuf>
#include <utility>

#include "core/experiment.hpp"
#include "core/failure.hpp"
#include "core/pipeline.hpp"
#include "device/preset.hpp"
#include "epfl/benchmarks.hpp"
#include "spice/backend.hpp"
#include "logic/aiger.hpp"
#include "opt/cost.hpp"
#include "util/error.hpp"
#include "util/obs.hpp"

namespace cryo::service {

namespace obs = util::obs;

namespace {

/// Cache-counter snapshot taken around one job; the reply carries the
/// delta, so a client can see whether its job was served warm. Exact
/// with a single worker; an approximation (other jobs' traffic bleeds
/// in) under concurrency — documented in the README.
struct CacheSnapshot {
  std::uint64_t hits, misses, stores;
  std::uint64_t scenario_hits, scenario_misses;
  std::uint64_t pass_hits, pass_misses;

  static CacheSnapshot take() {
    return {obs::counter("cache.hits").get(),
            obs::counter("cache.misses").get(),
            obs::counter("cache.stores").get(),
            obs::counter("cache.core.scenario.hits").get(),
            obs::counter("cache.core.scenario.misses").get(),
            obs::counter("cache.pass_hits").get(),
            obs::counter("cache.pass_misses").get()};
  }

  util::Json delta_since(const CacheSnapshot& before) const {
    util::Json json = util::Json::object();
    json["hits"] = util::Json{hits - before.hits};
    json["misses"] = util::Json{misses - before.misses};
    json["stores"] = util::Json{stores - before.stores};
    json["scenario_hits"] = util::Json{scenario_hits - before.scenario_hits};
    json["scenario_misses"] =
        util::Json{scenario_misses - before.scenario_misses};
    json["pass_hits"] = util::Json{pass_hits - before.pass_hits};
    json["pass_misses"] = util::Json{pass_misses - before.pass_misses};
    return json;
  }
};

util::Json op_ok_reply(const std::string& id, const std::string& op) {
  util::Json reply = util::Json::object();
  reply["id"] = util::Json{id};
  reply["status"] = util::Json{"ok"};
  reply["op"] = util::Json{op};
  return reply;
}

/// Best-effort "id" extraction for error replies to requests that fail
/// validation (the id itself may be the malformed part).
std::string id_of(const util::Json& json) {
  if (!json.is_object()) {
    return {};
  }
  const util::Json* id = json.find("id");
  if (id == nullptr || id->type() != util::Json::Type::kString) {
    return {};
  }
  return id->as_string();
}

/// Minimal read/write streambufs over raw file descriptors, so socket
/// clients go through the exact same serve() loop as stdin/stdout.
class FdInBuf : public std::streambuf {
public:
  explicit FdInBuf(int fd) : fd_{fd} {}

protected:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      return traits_type::eof();
    }
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(buf_[0]);
  }

private:
  int fd_;
  char buf_[4096];
};

class FdOutBuf : public std::streambuf {
public:
  explicit FdOutBuf(int fd) : fd_{fd} {}

protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    ssize_t n;
    do {
      n = ::write(fd_, &c, 1);
    } while (n < 0 && errno == EINTR);
    // A half-closed peer (EPIPE) surfaces as a failed stream; serve()
    // keeps draining requests and simply cannot deliver the replies.
    return n == 1 ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    std::streamsize written = 0;
    while (written < count) {
      const ssize_t n = ::write(fd_, data + written, count - written);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      written += n;
    }
    return written;
  }

private:
  int fd_;
};

}  // namespace

Server::Server(ServeOptions options)
    : options_{std::move(options)}, queue_{options_.threads} {
  if (options_.catalog.empty()) {
    options_.catalog = cells::standard_catalog();
  }
}

int Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_ && std::getline(in, line)) {
    dispatch(line, out);
    flush(queue_.drain_ready(), out);
  }
  flush(queue_.drain_all(), out);
  return 0;
}

int Server::serve_fd(int in_fd, int out_fd) {
  // A fully closed peer must surface as a failed write, not SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  FdInBuf inbuf{in_fd};
  FdOutBuf outbuf{out_fd};
  std::istream in{&inbuf};
  std::ostream out{&outbuf};
  return serve(in, out);
}

int Server::serve_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw Error{ErrorKind::kIo, "socket path '" + path +
                                    "' is empty or too long for AF_UNIX"};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw Error{ErrorKind::kIo,
                std::string{"cannot create AF_UNIX socket: "} +
                    std::strerror(errno)};
  }
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    throw Error{ErrorKind::kIo,
                "cannot bind/listen on '" + path + "': " + reason};
  }
  while (!shutdown_) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(listener);
      throw Error{ErrorKind::kIo,
                  std::string{"accept failed: "} + std::strerror(errno)};
    }
    serve_fd(conn, conn);
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

void Server::flush(std::vector<util::Json> replies, std::ostream& out) {
  for (const util::Json& reply : replies) {
    out << reply.dump() << '\n';
  }
  out.flush();
}

void Server::dispatch(const std::string& line, std::ostream& out) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) {
    return;  // blank keep-alive line
  }
  if (line.size() > options_.max_line) {
    obs::counter("service.protocol_errors").add();
    queue_.submit_ready(error_reply(
        "", ErrorKind::kRecipe,
        "request line of " + std::to_string(line.size()) +
            " bytes exceeds the " + std::to_string(options_.max_line) +
            "-byte limit"));
    return;
  }
  util::Json json;
  try {
    json = util::Json::parse(line);
  } catch (const std::exception& e) {
    obs::counter("service.protocol_errors").add();
    queue_.submit_ready(error_reply("", ErrorKind::kRecipe,
                                    std::string{"malformed JSON: "} +
                                        e.what()));
    return;
  }
  JobRequest req;
  try {
    req = parse_request(json);
  } catch (const Error& e) {
    obs::counter("service.protocol_errors").add();
    queue_.submit_ready(error_reply(id_of(json), e.kind(), e.what()));
    return;
  }
  if (req.op == "ping") {
    queue_.submit_ready(op_ok_reply(req.id, "ping"));
  } else if (req.op == "stats") {
    // Barrier: the snapshot covers every previously-submitted job.
    flush(queue_.drain_all(), out);
    queue_.submit_ready(stats_reply(req.id));
  } else if (req.op == "shutdown") {
    // Barrier: every pending reply goes out before the acknowledgement.
    flush(queue_.drain_all(), out);
    flush({op_ok_reply(req.id, "shutdown")}, out);
    shutdown_ = true;
  } else {
    queue_.submit([this, req = std::move(req)] { return run_job(req); });
  }
}

util::Json Server::stats_reply(const std::string& id) const {
  util::Json reply = op_ok_reply(id, "stats");
  obs::ReportOptions options;
  options.flow = "cryoeda-serve";
  options.include_spans = false;
  options.include_histograms = false;
  reply["report"] = obs::report_json(options);
  return reply;
}

logic::Aig Server::resolve_design(const JobRequest& req) {
  if (!req.bench.empty()) {
    const std::lock_guard<std::mutex> lock{bench_mutex_};
    auto it = benches_.find(req.bench);
    if (it == benches_.end()) {
      logic::Aig aig;
      if (!epfl::find_benchmark(req.bench, aig)) {
        throw Error{ErrorKind::kRecipe,
                    "unknown benchmark '" + req.bench +
                        "' (see `cryoeda --help` for the built-in names)"};
      }
      it = benches_.emplace(req.bench, std::move(aig)).first;
    }
    return it->second;
  }
  logic::Aig design = logic::read_aiger_file(req.aiger_path);
  if (design.name().empty()) {
    design.set_name("user_design");
  }
  return design;
}

Server::CornerPtr Server::corner(const JobRequest& req,
                                 util::Budget* budget, bool& warm) {
  const std::string key = cells::default_lib_path(
      options_.lib_dir, device::resolve_preset(req.preset),
      spice::resolve_backend(req.backend).name(), req.temp, req.vdd);
  // Bounded retry: a waiter that inherited another job's failure (e.g.
  // that job's budget expired mid-characterization) re-enters and may
  // become the builder itself.
  for (int attempt = 0;; ++attempt) {
    std::promise<CornerPtr> promise;
    std::shared_future<CornerPtr> future;
    bool builder = false;
    {
      const std::lock_guard<std::mutex> lock{corner_mutex_};
      auto it = corners_.find(key);
      if (it == corners_.end()) {
        future = promise.get_future().share();
        corners_.emplace(key, future);
        builder = true;
        warm = false;
      } else {
        future = it->second;
        warm = future.wait_for(std::chrono::seconds{0}) ==
               std::future_status::ready;
      }
    }
    if (builder) {
      try {
        const obs::ScopedSpan span{"service.corner"};
        obs::counter("service.corners_built").add();
        cells::CharOptions char_options = options_.char_options;
        char_options.vdd = req.vdd;
        char_options.preset = device::resolve_preset(req.preset);
        char_options.backend = req.backend;
        char_options.budget = budget;
        CornerPtr corner = core::load_corner(key, options_.catalog, req.temp,
                                             char_options);
        promise.set_value(corner);
        return corner;
      } catch (...) {
        // Evict the failed entry so the next job retries, then hand the
        // failure to any waiters already parked on the future.
        {
          const std::lock_guard<std::mutex> lock{corner_mutex_};
          corners_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
      }
    }
    try {
      return future.get();
    } catch (...) {
      if (attempt >= 2) {
        throw;
      }
    }
  }
}

util::Json Server::run_job(const JobRequest& req) {
  const obs::ScopedSpan span{"service.job:" +
                             (req.id.empty() ? req.bench + req.aiger_path
                                             : req.id)};
  obs::counter("service.jobs").add();
  try {
    core::validate(req.flow);
    util::Budget budget;
    if (req.deadline_s > 0.0) {
      budget.set_deadline_in(req.deadline_s);
    }
    const std::string recipe = req.recipe.empty()
                                   ? core::canonical_recipe(req.flow)
                                   : req.recipe;
    // Compile first: a typo must not cost a characterization.
    const std::string canonical = core::Pipeline::parse(recipe).to_string();
    const logic::Aig design = resolve_design(req);
    bool corner_warm = false;
    const CornerPtr corner_ptr = corner(req, &budget, corner_warm);

    core::ExperimentOptions experiment;
    experiment.flow = req.flow;
    core::ScenarioSpec spec{opt::short_name(req.flow.priority),
                            req.flow.priority, recipe};
    const CacheSnapshot before = CacheSnapshot::take();
    const core::ScenarioResult result =
        core::run_scenario(design, corner_ptr->matcher, experiment, spec,
                           &budget);
    const CacheSnapshot after = CacheSnapshot::take();
    return ok_reply(req.id,
                    job_report_json(design, req.temp, req.vdd,
                                    device::resolve_preset(req.preset).name,
                                    spice::resolve_backend(req.backend)
                                        .identity(),
                                    canonical, result),
                    after.delta_since(before), corner_warm);
  } catch (const std::exception& e) {
    obs::counter("service.job_errors").add();
    const core::Failure failure = core::describe(e);
    return error_reply(req.id, failure.kind, failure.error);
  }
}

}  // namespace cryo::service
