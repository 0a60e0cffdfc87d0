#pragma once

#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cells/characterize.hpp"
#include "core/corner_matrix.hpp"
#include "logic/aig.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "util/budget.hpp"

namespace cryo::service {

/// Daemon configuration (`cryoeda serve` flags map onto this; tests
/// inject a cheap catalog and a temp lib dir).
struct ServeOptions {
  /// Job workers; 0 resolves via CRYOEDA_THREADS / the machine.
  int threads = 0;
  /// Directory of per-corner liberty caches (the one-shot CLI defaults
  /// to the same place, so daemon and CLI share characterized corners).
  std::string lib_dir = "cryoeda_out";
  /// Cell catalog to characterize; empty = cells::standard_catalog().
  std::vector<cells::CellSpec> catalog;
  /// Characterization defaults; `vdd` and `budget` are overridden per
  /// job (tests shrink the slew/load grids here).
  cells::CharOptions char_options;
  /// Longest accepted request line.
  std::size_t max_line = kMaxRequestLine;
};

/// The resident synthesis daemon behind `cryoeda serve`.
///
/// One server owns the long-lived expensive state every job shares:
///  * a characterized-corner map — (preset, engine, temp, vdd) ->
///    `core::Corner` (liberty library + `map::CellMatcher`, loaded by
///    `core::load_corner`), built at most once per corner (concurrent
///    requesters wait on a shared future; a corner whose
///    characterization *failed* — e.g. the requesting job's budget
///    expired mid-SPICE — is evicted so a later job retries);
///  * a built-benchmark cache (generator AIGs are deterministic);
///  * the process-global `util::ArtifactCache` (scenario / pass /
///    characterization stages), warmed across jobs.
///
/// Each job gets its own `util::Budget` (armed from `deadline_s`), its
/// own `service.job:<id>` obs span subtree, and full fault isolation:
/// any throw becomes a structured error reply carrying the `cryo::Error`
/// taxonomy (kind + the exit code the one-shot CLI would have returned)
/// while the daemon keeps serving.
///
/// Jobs run concurrently on the queue's thread pool, but replies are
/// emitted strictly in request order (the protocol is positional).
/// `stats` and `shutdown` are barriers: all pending jobs drain before
/// the snapshot is taken / the session ends.
class Server {
public:
  explicit Server(ServeOptions options);

  /// Serve one NDJSON session: read requests from `in` line by line,
  /// write one reply line each to `out` (in request order). Returns the
  /// session exit code: 0 on EOF or a clean `shutdown` — per-job
  /// failures are replies, not session failures.
  int serve(std::istream& in, std::ostream& out);

  /// Same over raw file descriptors (socketpair / pipe clients). Does
  /// not close the descriptors.
  int serve_fd(int in_fd, int out_fd);

  /// Accept loop on an AF_UNIX stream socket (one connection at a
  /// time), until a client sends `shutdown`. Replaces any stale socket
  /// file at `path`. Throws cryo::Error{kIo} when the socket cannot be
  /// created or bound.
  int serve_unix(const std::string& path);

  /// True once a `shutdown` request was served.
  bool shutdown_requested() const { return shutdown_; }

private:
  using CornerPtr = std::shared_ptr<const core::Corner>;

  void dispatch(const std::string& line, std::ostream& out);
  void flush(std::vector<util::Json> replies, std::ostream& out);

  util::Json run_job(const JobRequest& req);
  util::Json stats_reply(const std::string& id) const;

  logic::Aig resolve_design(const JobRequest& req);
  /// Get or build the job's (preset, engine, temp, vdd) corner — keyed
  /// by the canonical library path, so two presets at the same
  /// temperature never share a matcher. `budget` bounds a cold build
  /// (characterization aborts with kBudget when it expires); `warm`
  /// reports whether the corner was already resident.
  CornerPtr corner(const JobRequest& req, util::Budget* budget, bool& warm);

  ServeOptions options_;
  JobQueue queue_;
  bool shutdown_ = false;

  std::mutex bench_mutex_;
  std::map<std::string, logic::Aig> benches_;

  std::mutex corner_mutex_;
  std::map<std::string, std::shared_future<CornerPtr>> corners_;
};

}  // namespace cryo::service
