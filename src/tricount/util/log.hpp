// Leveled logging with printf formatting. Thread-safe: one line per call.
//
// Every line carries a monotonic timestamp (seconds since the first log
// call) and the calling thread's simulated rank, so interleaved output
// from a running world can be attributed:
//
//   [   0.001234] [r007] [DEBUG] shift 3 done
//
// The rank is a thread-local set by mpisim::PersistentWorld for each rank
// thread ([r---] outside a world). The same thread-local picks the
// obs::FlightRecorder ring each record goes to.
#pragma once

#include <cstdarg>

namespace tricount::util {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

/// Sets the minimum level that is emitted. Default: kInfo.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Tags the calling thread with a simulated rank id (negative clears the
/// tag). Set by mpisim::PersistentWorld on each rank thread.
void set_current_rank(int rank);
/// The calling thread's rank tag, or -1 when unset.
int current_rank();

/// Tags a non-rank helper thread (the telemetry publisher) with a short
/// label — at most 4 characters are shown — so its log lines read
/// `[tlm ]` instead of the anonymous `[r---]`. A rank tag, when set,
/// wins. Pass nullptr to clear. The pointer must stay valid for the
/// thread's lifetime (string literals in practice).
void set_thread_label(const char* label);
/// The calling thread's label, or nullptr when unset.
const char* thread_label();

void log(LogLevel level, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

#define TRICOUNT_LOG_TRACE(...) \
  ::tricount::util::log(::tricount::util::LogLevel::kTrace, __VA_ARGS__)
#define TRICOUNT_LOG_DEBUG(...) \
  ::tricount::util::log(::tricount::util::LogLevel::kDebug, __VA_ARGS__)
#define TRICOUNT_LOG_INFO(...) \
  ::tricount::util::log(::tricount::util::LogLevel::kInfo, __VA_ARGS__)
#define TRICOUNT_LOG_WARN(...) \
  ::tricount::util::log(::tricount::util::LogLevel::kWarn, __VA_ARGS__)
#define TRICOUNT_LOG_ERROR(...) \
  ::tricount::util::log(::tricount::util::LogLevel::kError, __VA_ARGS__)

}  // namespace tricount::util
