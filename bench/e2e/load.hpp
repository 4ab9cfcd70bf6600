#pragma once
// The load generator: one thread drives magicd over at most a few Unix
// socket connections (open or closed loop), or over its stdio pipes, and
// records when each request was due, sent and answered.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "magicd_process.hpp"

namespace magic::e2e {

/// What happened to one request. Times are seconds from the phase start.
struct Outcome {
  double scheduled_s = 0.0;  ///< open loop: when it was due
  double sent_s = -1.0;      ///< when the generator began writing it
  double done_s = -1.0;      ///< when its response was read; -1 = missing
  bool ok = false;
  int family_index = -1;
  std::vector<double> probabilities; ///< kept for checked requests only
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  Clock::time_point start;  ///< the phase's time origin
  double wall_s = 0.0;     ///< first send to last response
  bool in_order = true;    ///< each response answered its connection's oldest request
  std::string stats_line;  ///< magicd's `stats` reply after the last response
  std::string error;       ///< why the phase was cut short; empty when complete

  /// Requests without an ok verdict, missing ones included.
  std::size_t not_ok() const;
};

/// Socket load. Request k sends `payloads[traffic[k]]` as `r<k> b64 ...`.
struct SocketLoad {
  const std::vector<std::string>* payloads = nullptr;  ///< base64 listings
  const std::vector<std::uint32_t>* traffic = nullptr;
  /// Open loop: one due offset per request, sent round-robin over the
  /// connections. Empty: closed loop of `requests` requests.
  std::vector<double> schedule;
  std::size_t requests = 0;
  std::size_t connections = 4;
  std::size_t depth = 16;  ///< closed loop: requests in flight per connection
  std::vector<bool> keep_probabilities;  ///< by request index
  double timeout_s = 120.0;
};

/// Connects to a running daemon, runs the load, then asks for `stats`.
PhaseResult run_socket_load(const std::string& socket_path, const SocketLoad& load);

/// Stdio load: `lines` (scan requests with ids s0, s1, ...) written in
/// order, with at most `window` outstanding. magicd flushes stdio responses
/// only when it reads further input, so while the generator waits on a full
/// window or on the last responses it sends an ignorable `#` line every
/// 200 us.
struct StdioLoad {
  /// What follows the last request: a `stats` request whose reply ends the
  /// phase, or nothing.
  enum class After { Stats, Nothing };

  std::vector<std::string> lines;
  std::vector<bool> keep_probabilities;
  /// Four per magicd worker. A deeper window only lengthens the daemon's
  /// queue, which packs bigger batches and makes each phase's throughput
  /// depend on their timing.
  std::size_t window = 16;
  After after = After::Stats;
  double timeout_s = 120.0;
};

PhaseResult run_stdio_load(MagicdProcess& magicd, const StdioLoad& load);

/// Cold start of a socket daemon: from its fork until the first ok verdict
/// on `request` (seconds), connecting as soon as the socket accepts. Returns
/// a negative value on failure or timeout.
double socket_cold_start(const MagicdProcess& magicd, const std::string& socket_path,
                         const std::string& request, double timeout_s);

}  // namespace magic::e2e
