// Record-mode overhead of the src/replay Recorder across the four
// interposition mechanisms, on the two application workloads (webserver,
// coreutils). rr's authors report that recording cost is dominated by the
// price of intercepting syscalls and nondeterministic inputs; this bench
// turns the Table-I mechanism comparison into exactly that end-to-end
// application number: the same Recorder driven by ptrace, SUD, zpoline, and
// lazypoline.
//
// Expected shape: the recorder itself adds a small per-event cost (trace
// framing + out-buffer copies), so record-mode overhead tracks the
// mechanism's interposition cost — ptrace-based recording costs multiples of
// native, lazypoline-based recording stays within a few percent.
//
// Each row also carries the host wall time of its plain and recorded runs
// and their reference-path steps by fallback reason
// (Machine::fallback_totals). Attaching the Recorder must not take the block
// engine away: the run fails if a recorded run makes more reference steps
// than the plain run of the same mechanism and workload.
//
//   ./build/bench/record_overhead [out.json]
//
// Emits an ASCII table per workload plus a JSON summary (default
// BENCH_record_overhead.json) for the perf trajectory.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/coreutils.hpp"
#include "apps/webserver.hpp"
#include "base/strings.hpp"
#include "bench_util.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "metrics/report.hpp"
#include "replay/recorder.hpp"

namespace {
using namespace lzp;
using bench::write_json_report;

constexpr std::uint64_t kSeed = 0x1A5F'9E37ULL;
constexpr std::uint64_t kRequests = 600;
constexpr std::uint64_t kFileSize = 4096;

enum class Mech { kNative, kPtrace, kSud, kZpoline, kLazypoline };
const char* mech_name(Mech mech) {
  switch (mech) {
    case Mech::kNative: return "native";
    case Mech::kPtrace: return "ptrace";
    case Mech::kSud: return "sud";
    case Mech::kZpoline: return "zpoline";
    case Mech::kLazypoline: return "lazypoline";
  }
  return "?";
}

void install(kern::Machine& machine, kern::Tid tid,
             const std::shared_ptr<interpose::SyscallHandler>& handler,
             Mech mech) {
  switch (mech) {
    case Mech::kNative:
      break;
    case Mech::kPtrace:
      bench::check(mechanisms::PtraceMechanism().install(machine, tid, handler),
                   "ptrace install");
      break;
    case Mech::kSud:
      bench::check(mechanisms::SudMechanism().install(machine, tid, handler),
                   "sud install");
      break;
    case Mech::kZpoline:
      bench::check(zpoline::ZpolineMechanism().install(machine, tid, handler),
                   "zpoline install");
      break;
    case Mech::kLazypoline: {
      auto runtime = core::Lazypoline::create(machine, {});
      bench::check(runtime->install(machine, tid, handler), "lazypoline install");
      break;
    }
  }
}

struct RunResult {
  std::uint64_t wall_cycles = 0;
  std::size_t trace_events = 0;  // 0 when not recording
  kern::FallbackStats fallbacks;
  double wall_ms = 0.0;  // host time of the whole run, set-up included
};

// One webserver run (2 workers); wall time = the slowest worker, as in fig5.
RunResult run_webserver(Mech mech, bool record) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  auto recorder = std::make_shared<replay::Recorder>();
  if (record) recorder->attach(machine, kSeed, mech_name(mech), "webserver");
  const std::shared_ptr<interpose::SyscallHandler> handler =
      record ? std::static_pointer_cast<interpose::SyscallHandler>(recorder)
             : std::make_shared<interpose::DummyHandler>();

  const apps::ServerProfile profile = apps::nginx_profile();
  bench::check(machine.vfs().put_file_of_size("index.html", kFileSize),
               "seed file");
  kern::ClientWorkload workload;
  workload.connections = 8;
  workload.total_requests = kRequests;
  workload.response_bytes = profile.header_bytes + kFileSize;
  const int listener = machine.net().create_listener(workload);

  const auto program = bench::unwrap(
      apps::make_webserver(machine, profile, "index.html"), "build server");
  machine.register_program(program);
  std::vector<kern::Tid> tids;
  for (int worker = 0; worker < 2; ++worker) {
    const kern::Tid tid = bench::unwrap(machine.load(program), "load worker");
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = listener;
    machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
    install(machine, tid, handler, mech);
    tids.push_back(tid);
  }

  const auto stats = machine.run(2'000'000'000ULL);
  if (!stats.all_exited) bench::die("webserver hung: " + machine.last_fatal());
  if (machine.net().completed_requests(listener) != kRequests) {
    bench::die("webserver served wrong request count");
  }
  if (record && recorder->uncaptured_nondeterminism()) {
    bench::die("record audit: " + recorder->audit_report().front());
  }

  RunResult result;
  for (kern::Tid tid : tids) {
    result.wall_cycles =
        std::max(result.wall_cycles, machine.find_task(tid)->cycles);
  }
  if (record) result.trace_events = recorder->trace().events.size();
  result.fallbacks = machine.fallback_totals();
  return result;
}

// All ten coreutils (Ubuntu profile) back to back; cycles summed.
RunResult run_coreutils(Mech mech, bool record) {
  RunResult result;
  for (const std::string& name : apps::coreutil_names()) {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    auto recorder = std::make_shared<replay::Recorder>();
    if (record) recorder->attach(machine, kSeed, mech_name(mech), name);
    const std::shared_ptr<interpose::SyscallHandler> handler =
        record ? std::static_pointer_cast<interpose::SyscallHandler>(recorder)
               : std::make_shared<interpose::DummyHandler>();

    apps::populate_coreutil_fixtures(machine.vfs());
    const auto program = bench::unwrap(
        apps::make_coreutil(name, apps::LibcProfile::kUbuntu2004),
        "build coreutil");
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load coreutil");
    install(machine, tid, handler, mech);

    const auto stats = machine.run();
    if (!stats.all_exited) bench::die(name + " hung: " + machine.last_fatal());
    if (record && recorder->uncaptured_nondeterminism()) {
      bench::die("record audit: " + recorder->audit_report().front());
    }
    result.wall_cycles += machine.find_task(tid)->cycles;
    if (record) result.trace_events += recorder->trace().events.size();
    result.fallbacks += machine.fallback_totals();
  }
  return result;
}

// Runs one leg and times it on the host clock.
RunResult timed_run(RunResult (*run)(Mech, bool), Mech mech, bool record) {
  const auto start = std::chrono::steady_clock::now();
  RunResult result = run(mech, record);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

struct Row {
  std::string workload;
  std::string mechanism;
  RunResult plain;
  RunResult record;
  double plain_x_native = 0.0;
  double record_x_native = 0.0;
};

// One JSON field per fallback reason, named <prefix>_ref_<reason>.
void add_fallbacks(metrics::JsonObject& json, const std::string& prefix,
                   const kern::FallbackStats& fallbacks) {
  json.add(prefix + "_ref_engine_disabled", fallbacks.engine_disabled)
      .add(prefix + "_ref_insn_observer", fallbacks.insn_observer)
      .add(prefix + "_ref_ptraced", fallbacks.ptraced)
      .add(prefix + "_ref_host_rip", fallbacks.host_rip)
      .add(prefix + "_ref_signal", fallbacks.signal)
      .add(prefix + "_ref_no_block", fallbacks.no_block);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_record_overhead.json";
  const std::vector<Mech> mechs = {Mech::kPtrace, Mech::kSud, Mech::kZpoline,
                                   Mech::kLazypoline};
  std::vector<Row> rows;
  double ptrace_x = 0.0, lazypoline_x = 0.0;
  std::vector<std::string> engine_failures;

  struct Workload {
    const char* name;
    RunResult (*run)(Mech, bool);
  };
  const Workload workloads[] = {{"webserver", run_webserver},
                                {"coreutils", run_coreutils}};

  std::printf("== Record-mode overhead: the same Recorder over four "
              "mechanisms ==\n\n");
  for (const auto& workload : workloads) {
    const std::uint64_t native = workload.run(Mech::kNative, false).wall_cycles;
    metrics::Table table({"mechanism", "plain cycles", "record cycles",
                          "plain x native", "record x native", "events",
                          "plain ms", "record ms", "plain ref steps",
                          "record ref steps"});
    for (Mech mech : mechs) {
      Row row;
      row.workload = workload.name;
      row.mechanism = mech_name(mech);
      row.plain = timed_run(workload.run, mech, false);
      row.record = timed_run(workload.run, mech, true);
      row.plain_x_native = static_cast<double>(row.plain.wall_cycles) /
                           static_cast<double>(native);
      row.record_x_native = static_cast<double>(row.record.wall_cycles) /
                            static_cast<double>(native);
      table.add_row({row.mechanism, std::to_string(row.plain.wall_cycles),
                     std::to_string(row.record.wall_cycles),
                     metrics::ratio(row.plain_x_native),
                     metrics::ratio(row.record_x_native),
                     std::to_string(row.record.trace_events),
                     format_double(row.plain.wall_ms, 1),
                     format_double(row.record.wall_ms, 1),
                     std::to_string(row.plain.fallbacks.total()),
                     std::to_string(row.record.fallbacks.total())});
      if (row.record.fallbacks.total() > row.plain.fallbacks.total()) {
        engine_failures.push_back(
            row.workload + "/" + row.mechanism + ": " +
            std::to_string(row.record.fallbacks.total()) +
            " reference steps recorded vs " +
            std::to_string(row.plain.fallbacks.total()) + " plain");
      }
      if (mech == Mech::kPtrace) ptrace_x += row.record_x_native;
      if (mech == Mech::kLazypoline) lazypoline_x += row.record_x_native;
      rows.push_back(std::move(row));
    }
    std::printf("-- %s (native baseline: %llu cycles) --\n%s\n", workload.name,
                static_cast<unsigned long long>(native),
                table.render().c_str());
  }

  std::vector<std::string> results;
  results.reserve(rows.size());
  for (const Row& row : rows) {
    metrics::JsonObject json;
    json.add("workload", row.workload)
        .add("mechanism", row.mechanism)
        .add("plain_cycles", row.plain.wall_cycles)
        .add("record_cycles", row.record.wall_cycles)
        .add("plain_x_native", row.plain_x_native)
        .add("record_x_native", row.record_x_native)
        .add("trace_events",
             static_cast<std::uint64_t>(row.record.trace_events))
        .add("plain_wall_ms", row.plain.wall_ms)
        .add("record_wall_ms", row.record.wall_ms);
    add_fallbacks(json, "plain", row.plain.fallbacks);
    add_fallbacks(json, "record", row.record.fallbacks);
    results.push_back(json.render());
  }
  write_json_report(json_path, "record_overhead", results);

  // Acceptance: recording keeps the block engine. Deterministic, so it holds
  // on any host.
  if (!engine_failures.empty()) {
    for (const std::string& failure : engine_failures) {
      std::fprintf(stderr, "FAIL: recorder forced the reference path: %s\n",
                   failure.c_str());
    }
    return 1;
  }
  std::printf("recorded runs make no more reference steps than plain runs: "
              "OK\n");

  // Acceptance: lazypoline-based recording must beat the ptrace recorder.
  if (lazypoline_x >= ptrace_x) {
    std::fprintf(stderr,
                 "FAIL: lazypoline record overhead (%.2fx summed) not below "
                 "ptrace (%.2fx summed)\n",
                 lazypoline_x, ptrace_x);
    return 1;
  }
  std::printf("lazypoline record overhead %.2fx vs ptrace %.2fx (summed over "
              "workloads): OK\n",
              lazypoline_x / 2.0, ptrace_x / 2.0);
  return 0;
}
