// Tests for the record/replay subsystem (src/replay): trace format round
// trips, the record→replay round-trip property under all four interposition
// mechanisms, exact-boundary signal replay, multi-task schedule replay,
// divergence detection, and the record-mode nondeterminism audit.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/sud_tool.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "sim_test_util.hpp"
#include "zpoline/zpoline.hpp"

namespace {
using namespace lzp;
using kern::Machine;
using kern::Task;
using kern::Tid;

enum class Mech { kPtrace, kSud, kZpoline, kLazypoline };

const char* mech_name(Mech mech) {
  switch (mech) {
    case Mech::kPtrace: return "ptrace";
    case Mech::kSud: return "sud";
    case Mech::kZpoline: return "zpoline";
    case Mech::kLazypoline: return "lazypoline";
  }
  return "?";
}

void install_mechanism(Machine& machine, Tid tid,
                       std::shared_ptr<interpose::SyscallHandler> handler,
                       Mech mech) {
  switch (mech) {
    case Mech::kPtrace: {
      mechanisms::PtraceMechanism mechanism;
      ASSERT_TRUE(mechanism.install(machine, tid, handler).is_ok());
      break;
    }
    case Mech::kSud: {
      mechanisms::SudMechanism mechanism;
      ASSERT_TRUE(mechanism.install(machine, tid, handler).is_ok());
      break;
    }
    case Mech::kZpoline: {
      zpoline::ZpolineMechanism mechanism;
      ASSERT_TRUE(mechanism.install(machine, tid, handler).is_ok());
      break;
    }
    case Mech::kLazypoline: {
      core::LazypolineConfig config;
      auto runtime = core::Lazypoline::create(machine, config);
      ASSERT_TRUE(runtime->install(machine, tid, handler).is_ok());
      break;
    }
  }
}

// --- trace format ----------------------------------------------------------

replay::Trace make_sample_trace() {
  replay::Trace trace;
  trace.header.rng_seed = 0xDEADBEEF;
  trace.header.mechanism = "sud";
  trace.header.workload = "sample";

  replay::SyscallEvent syscall;
  syscall.tid = 4;
  syscall.nr = kern::kSysRead;
  syscall.args = {3, 0x601000, 128, 0, 0, 0};
  syscall.result = 17;
  syscall.insns_retired = 1234;
  syscall.reg_hash = 0xABCDEF;
  syscall.patches.push_back(replay::MemPatch{0x601000, {1, 2, 3, 4, 5}});
  trace.events.emplace_back(syscall);

  trace.events.emplace_back(replay::ScheduleEvent{4, 64});

  replay::SignalEvent signal;
  signal.tid = 4;
  signal.signo = kern::kSigusr1;
  signal.external = true;
  signal.insns_retired = 2000;
  signal.machine_insns = 2345;
  trace.events.emplace_back(signal);

  trace.events.emplace_back(replay::NondetEvent{4, kern::kSysGetrandom, 0});
  return trace;
}

TEST(TraceFormat, BinaryRoundTrip) {
  const replay::Trace trace = make_sample_trace();
  const auto bytes = trace.serialize();
  auto restored = replay::Trace::deserialize(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), trace);
}

TEST(TraceFormat, FileRoundTrip) {
  const replay::Trace trace = make_sample_trace();
  const std::string path = ::testing::TempDir() + "/replay_test.trace";
  ASSERT_TRUE(trace.save(path).is_ok());
  auto restored = replay::Trace::load(path);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value(), trace);
  std::remove(path.c_str());
}

TEST(TraceFormat, RejectsGarbage) {
  std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02, 0x03};
  EXPECT_FALSE(replay::Trace::deserialize(garbage).is_ok());
  EXPECT_FALSE(replay::Trace::load("/nonexistent/trace").is_ok());
}

TEST(TraceFormat, EventToStringIsHumanReadable) {
  const replay::Trace trace = make_sample_trace();
  const std::string line = replay::event_to_string(trace.events[0]);
  EXPECT_NE(line.find("read"), std::string::npos);
  EXPECT_NE(line.find("= 17"), std::string::npos);
}

// --- round-trip property ---------------------------------------------------

// What one record or replay run leaves behind: the fingerprint that must not
// depend on the execution engine, and the engine counters that show which
// engine ran it.
struct RunOutcome {
  kern::RunStats stats;
  std::vector<int> exit_codes;
  std::vector<std::uint64_t> insns_retired;
  std::uint64_t total_steps = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t block_lookups = 0;
  kern::FallbackStats fallbacks;
};

RunOutcome collect(Machine& machine, const std::vector<Tid>& tids,
                   kern::RunStats stats) {
  RunOutcome outcome;
  outcome.stats = stats;
  for (Tid tid : tids) {
    Task* task = machine.find_task(tid);
    EXPECT_NE(task, nullptr);
    if (task != nullptr) {
      outcome.exit_codes.push_back(task->exit_code);
      outcome.insns_retired.push_back(task->insns_retired);
    }
  }
  outcome.total_steps = machine.total_steps();
  outcome.total_cycles = machine.total_cycles();
  const cpu::BlockCacheStats blocks = machine.block_cache_totals();
  outcome.block_lookups = blocks.hits + blocks.misses;
  outcome.fallbacks = machine.fallback_totals();
  return outcome;
}

// A record run and the replay of its trace, on one execution engine.
struct RoundTrip {
  replay::Trace trace;
  RunOutcome recorded;
  RunOutcome replayed;
};

void expect_same_run(const RunOutcome& on, const RunOutcome& off) {
  EXPECT_EQ(on.exit_codes, off.exit_codes);
  EXPECT_EQ(on.insns_retired, off.insns_retired);
  EXPECT_EQ(on.stats.insns, off.stats.insns);
  EXPECT_EQ(on.total_steps, off.total_steps);
  EXPECT_EQ(on.total_cycles, off.total_cycles);
}

// Engine-differential check. The block engine and the reference path must
// record the same trace and reproduce the same fingerprint when recording
// and when replaying. Under SUD, zpoline and lazypoline the engine must also
// have run both legs: the only reference steps left are host code
// (interposer entry points) and up to `signal_steps` deliveries of posted
// signals.
void expect_engines_agree(const RoundTrip& on, const RoundTrip& off, Mech mech,
                          std::uint64_t signal_steps = 0) {
  EXPECT_EQ(on.trace, off.trace);
  {
    SCOPED_TRACE("record");
    expect_same_run(on.recorded, off.recorded);
  }
  {
    SCOPED_TRACE("replay");
    expect_same_run(on.replayed, off.replayed);
  }
#ifndef LZP_BLOCK_EXEC_DISABLED
  if (mech != Mech::kPtrace) {  // a ptraced task never batches
    for (const RunOutcome* run : {&on.recorded, &on.replayed}) {
      EXPECT_GT(run->block_lookups, 0u);
      EXPECT_LE(run->fallbacks.signal, signal_steps);
      kern::FallbackStats not_host = run->fallbacks;
      not_host.host_rip = 0;
      not_host.signal = 0;
      EXPECT_EQ(not_host.total(), 0u);
    }
  }
  // The reference leg really was the reference path: every step fell back.
  for (const RunOutcome* run : {&off.recorded, &off.replayed}) {
    EXPECT_EQ(run->block_lookups, 0u);
    EXPECT_EQ(run->fallbacks.engine_disabled, run->total_steps);
  }
#else
  (void)mech;
  (void)signal_steps;
#endif
}

// Runs `scenario(block_on, &round_trip)` with the block engine on and off and
// compares the two round trips.
template <typename Scenario>
void on_both_engines(Mech mech, Scenario scenario,
                     std::uint64_t signal_steps = 0) {
  RoundTrip on;
  RoundTrip off;
  {
    SCOPED_TRACE("block engine on");
    scenario(true, &on);
  }
  {
    SCOPED_TRACE("block engine off");
    scenario(false, &off);
  }
  if (::testing::Test::HasFatalFailure()) return;
  expect_engines_agree(on, off, mech, signal_steps);
}

// Records a syscall-loop run under `mech`, replays the trace on a fresh
// machine, and checks the round-trip property.
void round_trip_loop(Mech mech, bool block_on, RoundTrip* out) {
  SCOPED_TRACE(mech_name(mech));
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 40);

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    recorder->attach(machine, /*rng_seed=*/42, mech_name(mech), "loop");
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, recorder, mech);
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->recorded = collect(machine, {tid}, stats);
    EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  }
  ASSERT_GT(recorder->trace().syscall_count(), 0u);
  ASSERT_GT(recorder->trace().count(replay::EventKind::kSchedule), 0u);
  out->trace = recorder->trace();

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, replayer, mech);
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->replayed = collect(machine, {tid}, stats);
    EXPECT_EQ(out->replayed.exit_codes, out->recorded.exit_codes);
    EXPECT_EQ(out->replayed.insns_retired, out->recorded.insns_retired);
    EXPECT_EQ(out->replayed.stats.insns, out->recorded.stats.insns);
  }
  EXPECT_GT(replayer->stats().syscalls_injected, 0u);
}

void loop_on_both_engines(Mech mech) {
  on_both_engines(mech, [mech](bool block_on, RoundTrip* out) {
    round_trip_loop(mech, block_on, out);
  });
}

TEST(ReplayRoundTrip, SyscallLoopPtrace) { loop_on_both_engines(Mech::kPtrace); }
TEST(ReplayRoundTrip, SyscallLoopSud) { loop_on_both_engines(Mech::kSud); }
TEST(ReplayRoundTrip, SyscallLoopZpoline) {
  loop_on_both_engines(Mech::kZpoline);
}
TEST(ReplayRoundTrip, SyscallLoopLazypoline) {
  loop_on_both_engines(Mech::kLazypoline);
}

// The acceptance-criteria workload: a multi-task webserver run, recorded and
// replayed under every mechanism. Replay runs with NO live network client:
// all net/vfs payloads come from the trace.
void round_trip_webserver(Mech mech, bool block_on, RoundTrip* out) {
  SCOPED_TRACE(mech_name(mech));
  constexpr std::uint64_t kRequests = 40;
  constexpr std::uint64_t kFileSize = 512;
  constexpr int kWorkers = 2;
  const apps::ServerProfile profile = apps::nginx_profile();

  auto build = [&](Machine& machine, bool live_client,
                   std::vector<Tid>* tids,
                   std::shared_ptr<interpose::SyscallHandler> handler,
                   int* listener_out) {
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    ASSERT_TRUE(machine.vfs().put_file_of_size("index.html", kFileSize).is_ok());
    kern::ClientWorkload workload;
    workload.connections = 4;
    workload.total_requests = live_client ? kRequests : 0;
    workload.response_bytes = profile.header_bytes + kFileSize;
    const int listener = machine.net().create_listener(workload);
    *listener_out = listener;

    auto program = apps::make_webserver(machine, profile, "index.html");
    ASSERT_TRUE(program.is_ok()) << program.status().to_string();
    machine.register_program(program.value());
    for (int w = 0; w < kWorkers; ++w) {
      const Tid tid = machine.load(program.value()).value();
      kern::FdEntry entry;
      entry.kind = kern::FdEntry::Kind::kListener;
      entry.net_id = listener;
      machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
      tids->push_back(tid);
      install_mechanism(machine, tid, handler, mech);
    }
  };

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/7, mech_name(mech), "webserver");
    std::vector<Tid> tids;
    int listener = -1;
    build(machine, /*live_client=*/true, &tids, recorder, &listener);
    const auto stats = machine.run(400'000'000ULL);
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    ASSERT_EQ(machine.net().completed_requests(listener), kRequests);
    out->recorded = collect(machine, tids, stats);
    EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  }
  const std::size_t recorded_syscalls = recorder->trace().syscall_count();
  ASSERT_GT(recorded_syscalls, 0u);
  out->trace = recorder->trace();

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    std::vector<Tid> tids;
    int listener = -1;
    // No live client: the replayed workers are fed entirely from the trace.
    build(machine, /*live_client=*/false, &tids, replayer, &listener);
    const auto stats = machine.run(400'000'000ULL);
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    // Kernel-side network execution really was suppressed.
    EXPECT_EQ(machine.net().completed_requests(listener), 0u);

    out->replayed = collect(machine, tids, stats);
    EXPECT_EQ(out->replayed.exit_codes, out->recorded.exit_codes);
    EXPECT_EQ(out->replayed.insns_retired, out->recorded.insns_retired);
    EXPECT_EQ(out->replayed.stats.insns, out->recorded.stats.insns);
  }
  EXPECT_GT(replayer->stats().syscalls_injected, 0u);
  if (mech == Mech::kSud || mech == Mech::kLazypoline) {
    // SUD-based interception delivers SIGSYS per intercepted syscall; replay
    // re-verifies every delivery at its recorded instruction boundary.
    EXPECT_GT(replayer->stats().signals_verified, 0u);
  }
}

void webserver_on_both_engines(Mech mech) {
  on_both_engines(mech, [mech](bool block_on, RoundTrip* out) {
    round_trip_webserver(mech, block_on, out);
  });
}

TEST(ReplayRoundTrip, WebserverPtrace) {
  webserver_on_both_engines(Mech::kPtrace);
}
TEST(ReplayRoundTrip, WebserverSud) { webserver_on_both_engines(Mech::kSud); }
TEST(ReplayRoundTrip, WebserverZpoline) {
  webserver_on_both_engines(Mech::kZpoline);
}
TEST(ReplayRoundTrip, WebserverLazypoline) {
  webserver_on_both_engines(Mech::kLazypoline);
}

// --- signal replay ---------------------------------------------------------

std::uint64_t bind_sigusr1_counter(Machine& machine, Tid tid, int* counter) {
  const std::uint64_t addr =
      machine.bind_host("replay_test.sigusr1", [counter](kern::HostFrame& frame) {
        ++*counter;
        (void)frame.syscall(kern::kSysRtSigreturn);
      });
  machine.find_task(tid)->process->sigactions[kern::kSigusr1] =
      kern::SigAction{addr, 0, 0};
  return addr;
}

// An async SIGUSR1 posted from outside the simulation mid-run must be
// re-delivered by the replayer at the exact recorded instruction boundary.
void external_signal_round_trip(Mech mech, bool block_on, RoundTrip* out) {
  SCOPED_TRACE(mech_name(mech));
  const auto program =
      testutil::make_syscall_loop(kern::kSysGetpid, 200, "sigloop");

  auto recorder = std::make_shared<replay::Recorder>();
  int recorded_runs = 0;
  {
    Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    recorder->attach(machine, /*rng_seed=*/3, mech_name(mech), "sigloop");
    const Tid tid = machine.load(program).value();
    bind_sigusr1_counter(machine, tid, &recorded_runs);
    install_mechanism(machine, tid, recorder, mech);
    (void)machine.run(600);  // partial run, then the async signal arrives
    kern::SigInfo info;
    info.signo = kern::kSigusr1;
    ASSERT_TRUE(machine.post_signal(tid, info).is_ok());
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->recorded = collect(machine, {tid}, stats);
  }
  ASSERT_EQ(recorded_runs, 1);

  // The trace pinned the delivery to an exact per-task instruction count.
  std::uint64_t recorded_boundary = 0;
  for (const auto& event : recorder->trace().events) {
    if (const auto* sig = std::get_if<replay::SignalEvent>(&event)) {
      if (sig->external) {
        EXPECT_EQ(sig->signo, kern::kSigusr1);
        recorded_boundary = sig->insns_retired;
      }
    }
  }
  ASSERT_GT(recorded_boundary, 0u);
  out->trace = recorder->trace();

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  int replayed_runs = 0;
  {
    Machine machine;
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program);
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    bind_sigusr1_counter(machine, tid, &replayed_runs);
    install_mechanism(machine, tid, replayer, mech);
    // One continuous run: the replayer re-posts the signal by itself.
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->replayed = collect(machine, {tid}, stats);
    EXPECT_EQ(out->replayed.exit_codes, out->recorded.exit_codes);
    EXPECT_EQ(out->replayed.insns_retired, out->recorded.insns_retired);
    EXPECT_EQ(out->replayed.stats.insns, out->recorded.stats.insns);
  }
  EXPECT_EQ(replayed_runs, 1);
  EXPECT_EQ(replayer->stats().signals_posted, 1u);
  // The delivery-boundary check in Replayer::on_signal passed (no
  // divergence), so the replayed delivery hit `recorded_boundary` exactly.
  EXPECT_GE(replayer->stats().signals_verified, 1u);
}

TEST(ReplaySignals, ExternalSignalAtExactBoundary) {
  // zpoline leaves host-code syscalls alone, so the host SIGUSR1 handler's
  // rt_sigreturn needs no allowlist, as under ptrace. The posted signal's
  // delivery is the one step the engine hands to the reference path.
  for (const Mech mech : {Mech::kPtrace, Mech::kZpoline}) {
    on_both_engines(
        mech,
        [mech](bool block_on, RoundTrip* out) {
          external_signal_round_trip(mech, block_on, out);
        },
        /*signal_steps=*/1);
  }
}

// --- multi-task schedule replay --------------------------------------------

void two_loops_round_trip(Mech mech, bool block_on, RoundTrip* out) {
  SCOPED_TRACE(mech_name(mech));
  const auto program_a =
      testutil::make_syscall_loop(kern::kSysGetpid, 30, "loop-a");
  const auto program_b =
      testutil::make_syscall_loop(kern::kSysGettid, 50, "loop-b");
  auto setup = [&](Machine& machine,
                   std::shared_ptr<interpose::SyscallHandler> handler,
                   std::vector<Tid>* tids) {
    machine.block_exec_enabled = block_on;
    machine.mmap_min_addr = 0;
    machine.register_program(program_a);
    machine.register_program(program_b);
    tids->push_back(machine.load(program_a).value());
    tids->push_back(machine.load(program_b).value());
    for (const Tid tid : *tids) install_mechanism(machine, tid, handler, mech);
  };

  auto recorder = std::make_shared<replay::Recorder>();
  std::uint64_t sled_slice_ends = 0;
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/11, mech_name(mech), "two-loops");
    // Counts slices that end with rip inside the VA-0 nop sled, where a
    // replayed slice budget must stop the engine mid-block.
    machine.add_slice_observer([&](const Task& task, std::uint64_t) {
      if (task.runnable() && task.ctx.rip < zpoline::ZpolineMechanism::kSledSize) {
        ++sled_slice_ends;
      }
    });
    std::vector<Tid> tids;
    setup(machine, recorder, &tids);
    const auto stats = machine.run();
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->recorded = collect(machine, tids, stats);
  }
  const std::size_t recorded_slices =
      recorder->trace().count(replay::EventKind::kSchedule);
  ASSERT_GT(recorded_slices, 2u);  // interleaved execution, not one slice each
  if (mech == Mech::kZpoline || mech == Mech::kLazypoline) {
    EXPECT_GT(sled_slice_ends, 0u);
  }
  out->trace = recorder->trace();

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    std::vector<Tid> tids;
    setup(machine, replayer, &tids);
    const auto stats = machine.run();
    EXPECT_TRUE(replayer->status().is_ok()) << replayer->status().to_string();
    EXPECT_TRUE(replayer->finished());
    ASSERT_TRUE(stats.all_exited) << machine.last_fatal();
    out->replayed = collect(machine, tids, stats);
    EXPECT_EQ(out->replayed.exit_codes, out->recorded.exit_codes);
    EXPECT_EQ(out->replayed.insns_retired, out->recorded.insns_retired);
    EXPECT_EQ(out->replayed.stats.insns, out->recorded.stats.insns);
  }
  EXPECT_EQ(replayer->stats().slices_replayed, recorded_slices);
}

TEST(ReplaySchedule, MultiTaskScheduleIsReplayed) {
  on_both_engines(Mech::kSud, [](bool block_on, RoundTrip* out) {
    two_loops_round_trip(Mech::kSud, block_on, out);
  });
}

// The recorded 64-step slices cut the ~470-nop stretch of the VA-0 sled that
// a getpid/gettid call slides down, so replaying them stops the engine inside
// blocks of nops only, where the leading-nop fold must stop at the budget.
TEST(ReplaySchedule, SlicesEndingInsideTheNopSledAreReplayed) {
  for (const Mech mech : {Mech::kZpoline, Mech::kLazypoline}) {
    on_both_engines(mech, [mech](bool block_on, RoundTrip* out) {
      two_loops_round_trip(mech, block_on, out);
    });
  }
}

// --- divergence detection (negative test) ----------------------------------

TEST(ReplayDivergence, TamperedTraceIsDetected) {
  const auto program = testutil::make_syscall_loop(kern::kSysGetpid, 20);

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/5, "sud", "loop");
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, recorder, Mech::kSud);
    ASSERT_TRUE(machine.run().all_exited);
  }

  replay::Trace trace = recorder->take_trace();
  // Corrupt the recorded instruction count of the third syscall event: the
  // replayed execution will reach that syscall at a different boundary.
  std::size_t seen = 0;
  for (auto& event : trace.events) {
    if (auto* syscall = std::get_if<replay::SyscallEvent>(&event)) {
      if (++seen == 3) {
        syscall->insns_retired += 1;
        break;
      }
    }
  }
  ASSERT_EQ(seen, 3u);

  auto replayer = std::make_shared<replay::Replayer>(std::move(trace));
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid = machine.load(program).value();
    install_mechanism(machine, tid, replayer, Mech::kSud);
    (void)machine.run();
  }
  EXPECT_TRUE(replayer->diverged());
  EXPECT_NE(replayer->status().to_string().find("instruction-count mismatch"),
            std::string::npos)
      << replayer->status().to_string();
}

TEST(ReplayDivergence, WrongWorkloadDivergesInsteadOfCrashing) {
  const auto recorded_program =
      testutil::make_syscall_loop(kern::kSysGetpid, 20, "recorded");
  const auto other_program =
      testutil::make_syscall_loop(kern::kSysGettid, 20, "other");

  auto recorder = std::make_shared<replay::Recorder>();
  {
    Machine machine;
    recorder->attach(machine, /*rng_seed=*/5, "sud", "loop");
    const Tid tid = machine.load(recorded_program).value();
    install_mechanism(machine, tid, recorder, Mech::kSud);
    ASSERT_TRUE(machine.run().all_exited);
  }

  auto replayer = std::make_shared<replay::Replayer>(recorder->take_trace());
  {
    Machine machine;
    replayer->attach(machine);
    const Tid tid = machine.load(other_program).value();
    install_mechanism(machine, tid, replayer, Mech::kSud);
    (void)machine.run();
  }
  EXPECT_TRUE(replayer->diverged());
}

// --- nondeterminism audit ---------------------------------------------------

TEST(ReplayAudit, UncapturedNondeterminismIsFlagged) {
  // getrandom consumed with NO interposition mechanism installed: the
  // recorder's machine-level audit hook must notice that entropy bypassed
  // its capture window.
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto recorder = std::make_shared<replay::Recorder>();
  Machine machine;
  recorder->attach(machine, /*rng_seed=*/9, "none", "entropy");
  const Tid tid = machine.load(program).value();
  ASSERT_TRUE(machine.run().all_exited);
  (void)tid;

  EXPECT_TRUE(recorder->uncaptured_nondeterminism());
  const auto report = recorder->audit_report();
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report[0].find("getrandom"), std::string::npos);
}

TEST(ReplayAudit, InterposedNondeterminismIsClaimed) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto recorder = std::make_shared<replay::Recorder>();
  Machine machine;
  recorder->attach(machine, /*rng_seed=*/9, "sud", "entropy");
  const Tid tid = machine.load(program).value();
  install_mechanism(machine, tid, recorder, Mech::kSud);
  ASSERT_TRUE(machine.run().all_exited);

  EXPECT_FALSE(recorder->uncaptured_nondeterminism());
  EXPECT_GT(recorder->trace().count(replay::EventKind::kNondet), 0u);
}

TEST(ReplayAudit, GetrandomDrawsFromSeededMachineRng) {
  isa::Assembler a;
  const auto entry = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rdi, apps::kScratchBuf);
  a.mov(isa::Gpr::rsi, 16);
  apps::emit_syscall(a, kern::kSysGetrandom);
  apps::emit_exit(a, 0);
  const auto program = isa::make_program("entropy", a, entry).value();

  auto draw = [&](std::uint64_t seed) {
    Machine machine;
    machine.reseed_rng(seed);
    const Tid tid = machine.load(program).value();
    EXPECT_TRUE(machine.run().all_exited);
    std::vector<std::uint8_t> bytes(16);
    EXPECT_FALSE(
        machine.find_task(tid)->mem->read(apps::kScratchBuf, bytes).has_value());
    return bytes;
  };

  EXPECT_EQ(draw(123), draw(123));  // same seed, same entropy stream
  EXPECT_NE(draw(123), draw(456));  // reseeding changes the stream
}

}  // namespace
