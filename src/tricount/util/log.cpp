#include "tricount/util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "tricount/util/time.hpp"

namespace tricount::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_log_mutex;
thread_local int t_rank = -1;
thread_local const char* t_label = nullptr;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

/// Seconds since the first log line of the process (monotonic clock).
double log_clock_seconds() {
  static const double epoch = wall_seconds();
  return wall_seconds() - epoch;
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void set_current_rank(int rank) { t_rank = rank < 0 ? -1 : rank; }

int current_rank() { return t_rank; }

void set_thread_label(const char* label) { t_label = label; }

const char* thread_label() { return t_label; }

void log(LogLevel level, const char* format, ...) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  const double ts = log_clock_seconds();
  std::va_list args;
  va_start(args, format);
  {
    std::scoped_lock lock(g_log_mutex);
    if (t_rank >= 0) {
      std::fprintf(stderr, "[%11.6f] [r%03d] [%s] ", ts, t_rank,
                   level_name(level));
    } else if (t_label != nullptr) {
      std::fprintf(stderr, "[%11.6f] [%-4.4s] [%s] ", ts, t_label,
                   level_name(level));
    } else {
      std::fprintf(stderr, "[%11.6f] [r---] [%s] ", ts, level_name(level));
    }
    std::vfprintf(stderr, format, args);
    std::fputc('\n', stderr);
  }
  va_end(args);
}

}  // namespace tricount::util
