#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>

#include "util/mutex.hpp"

namespace magic::util {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::Info)};
std::atomic<int> g_format{static_cast<int>(LogFormat::Text)};
// Serializes the final stderr write of log_line (the capability guards the
// stream interleaving, not any data member).
Mutex g_mutex;  // magic-lint: guards(stderr interleaving)

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

const char* level_name_lower(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

/// Minimal JSON string-body escaping (logging cannot depend on serve::wire).
void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_format(LogFormat format) noexcept {
  g_format.store(static_cast<int>(format), std::memory_order_relaxed);
}

LogFormat log_format() noexcept {
  return static_cast<LogFormat>(g_format.load(std::memory_order_relaxed));
}

std::string log_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the format's worst case, so the output is never truncated:
  // six int fields of up to 11 characters, the millisecond field (at most
  // 4), seven literal characters and the terminating NUL.
  char buf[6 * 11 + 4 + 7 + 1];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
  return buf;
}

std::string render_log_line(LogFormat format, LogLevel level,
                            std::string_view component,
                            std::string_view message,
                            std::string_view timestamp) {
  std::string out;
  out.reserve(timestamp.size() + component.size() + message.size() + 48);
  if (format == LogFormat::Json) {
    out += "{\"ts\":\"";
    append_json_escaped(out, timestamp);
    out += "\",\"level\":\"";
    out += level_name_lower(level);
    out += '"';
    if (!component.empty()) {
      out += ",\"component\":\"";
      append_json_escaped(out, component);
      out += '"';
    }
    out += ",\"msg\":\"";
    append_json_escaped(out, message);
    out += "\"}";
    return out;
  }
  out += timestamp;
  out += " [";
  out += level_name(level);
  out += ']';
  if (!component.empty()) {
    out += ' ';
    out += component;
    out += ':';
  }
  out += ' ';
  out += message;
  return out;
}

void log_line(LogLevel level, std::string_view component,
              const std::string& message) {
  const std::string line =
      render_log_line(log_format(), level, component, message, log_timestamp());
  MutexLock lock(g_mutex);
  std::cerr << line << "\n";
}

void log_line(LogLevel level, const std::string& message) {
  log_line(level, std::string_view{}, message);
}

}  // namespace magic::util
