// Host-time spans for the traced run, recorded from the benchmark's own
// files around calls into the simulator's public functions. Nothing here is
// linked into src/: the simulator is timed from outside only.
//
// A span's self time is its duration minus the part its child spans cover.
// Children on the opening thread nest through a per-thread stack. A root
// span (the one around Machine::run / run_smp) also owns the spans that SMP
// lanes open on pool threads, where that stack is empty; its self time
// subtracts the union of all its children's intervals, so lanes running
// handlers in parallel are not subtracted twice.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct SpanTotal {
  double self_s = 0.0;
  std::uint64_t count = 0;
};

// Spans are recorded only while tracing is on; otherwise a Span costs one
// relaxed load. Switch it only while no simulation is running.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

// Per-name self time and span count since the last call, over every thread.
// Call only while no simulation is running.
[[nodiscard]] std::map<std::string, SpanTotal> take_span_totals();

// Drops the spans kept for the Chrome/Perfetto file.
void clear_kept_spans();
// Writes the kept spans as Chrome trace-event JSON (opens in Perfetto and
// chrome://tracing beside trace_dump output). Returns false on I/O error.
[[nodiscard]] bool write_kept_spans(const std::string& path);
// Spans not kept because the file's span cap was reached.
[[nodiscard]] std::uint64_t dropped_spans();

// RAII span. `name` must be a string literal (it is stored by pointer).
class Span {
 public:
  explicit Span(const char* name, bool root = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace hostbench
