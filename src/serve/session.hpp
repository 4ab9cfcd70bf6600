#pragma once
// serve::Session: the magicd wire protocol (serve/wire.hpp) for one request
// stream, with no I/O. Bytes go in, ordered response lines come out. Both
// front ends run it: the epoll reactor keeps one Session per connection,
// the stdio front end one for stdin/stdout. The front ends keep only their
// transport: fds, readiness, byte budgets, write stalls and drain.
//
// The protocol rules, stated once:
//  - Framing: requests are '\n'-terminated lines; at end of input a final
//    unterminated line is a request too.
//  - One response per request, in request order. Blank and '#' lines get
//    none; a malformed line gets exactly one error verdict with an empty id.
//  - `quit` ends the input: later bytes are never parsed, and every
//    response already owed is still delivered.
//  - Sequence point: a `reload`/`shadow` line runs alone. Lines after it
//    stay unparsed until it resolves, so a pipelined reload applies to
//    every scan that follows it on the stream.
//  - Backpressure: parsing pauses once `cap` responses are owed and resumes
//    at half of that; `cap` is the service's queue capacity (at least 1),
//    so one stream alone never overflows the server queue. Unparsed input
//    is bounded by what the front end feeds per pass.
//  - `stats` renders when its slot reaches the front, so the reply reflects
//    every request ordered before it.
//
// Threads: one thread owns a Session and calls every method. Path reads,
// extraction plus submit, and control commands run through the `execute`
// hook (the reactor's worker pool; inline for stdio). Each response slot is
// filled by exactly one producer, which release-stores its ready flag and
// then fires `wake`, from whatever thread it runs on. Producers capture the
// slot, the service and the wake hook, never the Session, so a verdict that
// completes after its Session is gone is harmless.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "serve/scan_service.hpp"

namespace magic::serve {

class Session {
 public:
  /// What a front end supplies; all three are required.
  struct Hooks {
    /// Runs one blocking task: a `path` read, extraction and submit, or a
    /// control command.
    std::function<void(std::function<void()>)> execute;
    /// Fired from any thread after a response slot became ready. It must
    /// stay callable after the Session is destroyed.
    std::function<void()> wake;
    /// Renders a `stats` reply.
    std::function<std::string()> render_stats;
  };

  Session(ScanService& service, Hooks hooks);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Appends received bytes; pump() parses them.
  void feed(std::string_view bytes);
  /// Marks the end of input.
  void end_input();

  /// Parses as far as the rules allow and appends every ready response, in
  /// order and '\n'-terminated, to `out`. Call it after feed()/end_input()
  /// and on every wake. Returns the number of scan requests (`path`/`b64`
  /// lines) it dispatched.
  std::uint64_t pump(std::string& out);

  /// True while the stream takes more input: the input is open and not
  /// paused by backpressure or an unresolved `reload`/`shadow`.
  bool reading() const noexcept;
  /// `quit` was parsed, or the input ended and every line of it is parsed.
  bool input_closed() const noexcept;
  /// The input is closed and every response has been handed out.
  bool done() const noexcept { return input_closed() && slots_.empty(); }

 private:
  struct Slot;

  /// Frames the next complete line, or the final unterminated one once the
  /// input ended. False when no line is available.
  bool next_line(std::string& line);
  /// Parses buffered lines until the input is dry or a rule pauses it.
  std::uint64_t parse();
  /// Turns one line into its response slot (none for blank/'#' lines).
  bool handle(const std::string& line);

  ScanService& service_;
  const std::function<void(std::function<void()>)> execute_;
  /// Shared with every producer, so it outlives the Session.
  const std::shared_ptr<const std::function<void()>> wake_;
  const std::function<std::string()> render_stats_;
  const std::size_t cap_;

  std::string in_;
  std::size_t in_start_ = 0;
  bool input_ended_ = false;
  bool quit_ = false;
  bool paused_ = false;
  /// Owed responses, in request order.
  std::deque<std::shared_ptr<Slot>> slots_;
  /// The in-flight `reload`/`shadow` that later lines wait behind.
  std::shared_ptr<Slot> barrier_;
};

}  // namespace magic::serve
