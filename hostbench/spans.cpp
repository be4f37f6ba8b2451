#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace hostbench {
namespace {

// Cap on spans kept for the trace file: a traced pass of the fig5 workload
// opens close to a million handler spans, which would make a file too large
// to open. Self-time totals always count every span.
constexpr std::uint64_t kMaxKeptSpans = 200'000;

struct Frame {
  const char* name = nullptr;
  Clock::time_point start;
  double child_s = 0.0;
  bool root = false;
};

struct KeptSpan {
  const char* name = nullptr;
  Clock::time_point start;
  Clock::time_point end;
};

struct ThreadState {
  int tid = 0;
  std::vector<Frame> stack;
  std::map<const char*, SpanTotal> totals;
  // Intervals of the active root span's direct children on this thread.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> root_children;
  std::vector<KeptSpan> kept;
};

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_root_open{false};
std::atomic<std::uint64_t> g_kept{0};
std::atomic<std::uint64_t> g_dropped{0};
const Clock::time_point g_epoch = Clock::now();

// Owns every thread's state, so SMP pool threads may exit before the totals
// are read.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_states;

ThreadState& this_thread() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_states.push_back(std::make_unique<ThreadState>());
    state = g_states.back().get();
    state->tid = static_cast<int>(g_states.size());
  }
  return *state;
}

// Length of the union of the root's child intervals, clipped to the root.
double covered_by_root_children(Clock::time_point start, Clock::time_point end) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> all;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    for (auto& state : g_states) {
      all.insert(all.end(), state->root_children.begin(),
                 state->root_children.end());
      state->root_children.clear();
    }
  }
  std::sort(all.begin(), all.end());
  double covered = 0.0;
  Clock::time_point cursor = start;
  for (auto [from, to] : all) {
    from = std::max(from, cursor);
    to = std::min(to, end);
    if (to <= from) continue;
    covered += seconds_between(from, to);
    cursor = to;
  }
  return covered;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::map<std::string, SpanTotal> take_span_totals() {
  std::map<std::string, SpanTotal> out;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (auto& state : g_states) {
    for (const auto& [name, total] : state->totals) {
      SpanTotal& into = out[name];
      into.self_s += total.self_s;
      into.count += total.count;
    }
    state->totals.clear();
  }
  return out;
}

void clear_kept_spans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  for (auto& state : g_states) state->kept.clear();
  g_kept.store(0);
  g_dropped.store(0);
}

std::uint64_t dropped_spans() { return g_dropped.load(); }

bool write_kept_spans(const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& state : g_states) {
    for (const KeptSpan& span : state->kept) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
          << "\",\"cat\":\"hostbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << state->tid << ",\"ts\":"
          << seconds_between(g_epoch, span.start) * 1e6
          << ",\"dur\":" << seconds_between(span.start, span.end) * 1e6 << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, bool root) {
  if (!tracing()) return;
  active_ = true;
  this_thread().stack.push_back(Frame{name, Clock::now(), 0.0, root});
  if (root) g_root_open.store(true, std::memory_order_release);
}

Span::~Span() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  ThreadState& state = this_thread();
  const Frame frame = state.stack.back();
  state.stack.pop_back();
  const double duration = seconds_between(frame.start, end);
  double self = duration - frame.child_s;
  if (frame.root) {
    self = duration - covered_by_root_children(frame.start, end);
    g_root_open.store(false, std::memory_order_release);
  } else if (!state.stack.empty() && !state.stack.back().root) {
    state.stack.back().child_s += duration;
  } else if (g_root_open.load(std::memory_order_acquire)) {
    state.root_children.emplace_back(frame.start, end);
  }
  SpanTotal& total = state.totals[frame.name];
  total.self_s += self;
  ++total.count;
  if (g_kept.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
    state.kept.push_back(KeptSpan{frame.name, frame.start, end});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace hostbench
