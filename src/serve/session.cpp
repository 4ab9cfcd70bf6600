#include "serve/session.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "serve/wire.hpp"

namespace magic::serve {

/// One owed response. `id` and `is_stats` are written before the slot is
/// shared; `line` is written by exactly one producer before the
/// release-store on `ready`, and read by the owner after the acquire-load.
struct Session::Slot {
  std::string id;
  bool is_stats = false;
  std::atomic<bool> ready{false};
  std::string line;
};

namespace {

std::string error_line(std::string_view id, std::string message) {
  Verdict verdict;
  verdict.status = VerdictStatus::Error;
  verdict.error = std::move(message);
  return wire::verdict_to_json(id, verdict);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

}  // namespace

Session::Session(ScanService& service, Hooks hooks)
    : service_(service),
      execute_(std::move(hooks.execute)),
      wake_(std::make_shared<const std::function<void()>>(std::move(hooks.wake))),
      render_stats_(std::move(hooks.render_stats)),
      cap_(std::max<std::size_t>(1, service.queue_capacity())) {}

void Session::feed(std::string_view bytes) {
  if (!quit_) in_.append(bytes);
}

void Session::end_input() { input_ended_ = true; }

bool Session::reading() const noexcept {
  return !input_ended_ && !quit_ && !paused_ && !barrier_;
}

bool Session::input_closed() const noexcept {
  return quit_ || (input_ended_ && in_start_ == in_.size());
}

std::uint64_t Session::pump(std::string& out) {
  std::uint64_t scans = 0;
  for (;;) {
    scans += parse();
    const std::size_t owed = slots_.size();
    while (!slots_.empty()) {
      Slot& front = *slots_.front();
      if (!front.ready.load(std::memory_order_acquire)) break;
      out += front.is_stats ? render_stats_() : front.line;
      out += '\n';
      slots_.pop_front();
    }
    // Flushing may lift the backpressure pause; nothing else can change.
    if (slots_.size() == owed) return scans;
  }
}

bool Session::next_line(std::string& line) {
  const std::size_t newline = in_.find('\n', in_start_);
  if (newline != std::string::npos) {
    line.assign(in_, in_start_, newline - in_start_);
    in_start_ = newline + 1;
    return true;
  }
  if (input_ended_ && in_start_ < in_.size()) {
    line.assign(in_, in_start_);
    in_start_ = in_.size();
    return true;
  }
  return false;
}

std::uint64_t Session::parse() {
  std::uint64_t scans = 0;
  std::string line;
  while (!quit_) {
    if (barrier_) {
      if (!barrier_->ready.load(std::memory_order_acquire)) break;
      barrier_.reset();
    }
    if (paused_ && slots_.size() > cap_ / 2) break;
    paused_ = slots_.size() >= cap_;
    if (paused_ || !next_line(line)) break;
    if (handle(line)) ++scans;
  }
  if (quit_) {
    in_.clear();
  } else {
    in_.erase(0, in_start_);
  }
  in_start_ = 0;
  return scans;
}

bool Session::handle(const std::string& line) {
  auto slot = std::make_shared<Slot>();
  std::optional<wire::Request> request;
  try {
    request = wire::parse_request_line(line);
  } catch (const std::exception& e) {
    slot->line = error_line("", e.what());
    slot->ready.store(true, std::memory_order_release);
    slots_.push_back(std::move(slot));
    return false;
  }
  if (!request) return false;  // blank or '#': no response
  switch (request->kind) {
    case wire::Request::Kind::Quit:
      quit_ = true;
      return false;
    case wire::Request::Kind::Stats:
      slot->is_stats = true;
      slot->ready.store(true, std::memory_order_release);
      slots_.push_back(std::move(slot));
      return false;
    case wire::Request::Kind::Reload:
    case wire::Request::Kind::Shadow:
      slots_.push_back(slot);
      barrier_ = slot;
      // ScanService::control never throws.
      execute_([&service = service_, wake = wake_, slot = std::move(slot),
                request = std::move(*request)] {
        slot->line = service.control(request);
        slot->ready.store(true, std::memory_order_release);
        (*wake)();
      });
      return false;
    case wire::Request::Kind::Path:
    case wire::Request::Kind::Base64:
      slot->id = request->id;
      slots_.push_back(slot);
      execute_([&service = service_, wake = wake_, slot = std::move(slot),
                request = std::move(*request)] {
        auto fail = [&](std::string message) {
          slot->line = error_line(slot->id, std::move(message));
          slot->ready.store(true, std::memory_order_release);
          (*wake)();
        };
        try {
          std::string listing;
          std::string_view view = request.payload;
          if (request.kind == wire::Request::Kind::Path) {
            if (!read_file(request.payload, listing)) {
              fail("cannot open " + request.payload);
              return;
            }
            view = listing;
          }
          const PendingVerdict verdict = service.submit_listing(view, request.version);
          verdict.on_ready([slot, wake, verdict] {
            slot->line = wire::verdict_to_json(slot->id, verdict.get());
            slot->ready.store(true, std::memory_order_release);
            (*wake)();
          });
        } catch (const std::exception& e) {
          fail(e.what());
        }
      });
      return true;
  }
  return false;
}

}  // namespace magic::serve
