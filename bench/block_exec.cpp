// Superblock engine throughput gates.
//
// Every workload here runs on otherwise-identical machines differing only in
// the execution engine configuration:
//   reference — per-instruction stepping (decode cache on), the baseline;
//   block     — the superblock engine (block_exec_enabled), including the
//               all-nop superop that retires a sled block in O(1).
// Three claims are enforced:
//   (1) determinism — simulated cycles, retired instructions, machine steps
//       and exit codes are bit-identical across both configurations, for the
//       straight-line workload, each interposition mechanism's micro loop
//       (native / SUD / zpoline / lazypoline), and the Figure-5 webserver
//       under the same four mechanisms;
//   (2) block throughput — the superblock engine runs the straight-line
//       workload at least kBlockGate x faster than reference in host wall
//       time (min-of-N to shed scheduler noise);
//   (3) sled throughput — the superblock engine runs the syscall-intensive
//       webserver at least kWebGate x faster than reference under zpoline
//       and lazypoline, where each interposed syscall walks the VA-0 nop
//       sled that block_step retires as one superop per nop block.
// A fourth regression gate holds the SUD selector/stub page split: SUD must
// not invalidate cached blocks any more than zpoline does (the selector byte
// used to share the executable stub page, so every flip was an SMC event).
// Results land in BENCH_block_exec.json for scripts/check.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/webserver.hpp"
#include "base/strings.hpp"
#include "bench_util.hpp"
#include "metrics/report.hpp"

namespace {
using namespace lzp;

constexpr std::uint64_t kStraightLineIters = 20'000;
constexpr int kUnroll = 24;  // arithmetic ops per loop body → long blocks
constexpr std::uint64_t kMicroIters = 2'000;
constexpr std::uint64_t kWebRequests = 2'400;
constexpr std::uint64_t kWebFileSize = 4'096;
constexpr int kReps = 7;
constexpr int kWebReps = 3;
constexpr double kBlockGate = 1.5;
constexpr double kWebGate = 5.0;

struct EngineCfg {
  const char* name;
  bool block;
};
constexpr EngineCfg kReference{"reference", false};
constexpr EngineCfg kBlock{"block", true};

// The throughput workload: a hot loop whose body is a long straight-line run
// of arithmetic, so nearly every retired instruction is eligible for batched
// dispatch (the loop branch ends each block).
isa::Program make_straight_line(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.mov(isa::Gpr::rcx, 0);
  a.bind(loop);
  for (int i = 0; i < kUnroll; ++i) {
    a.add(isa::Gpr::rcx, static_cast<std::uint64_t>(i + 1));
  }
  a.sub(isa::Gpr::rbx, 1);
  a.cmp(isa::Gpr::rbx, 0);
  a.jnz(loop);
  apps::emit_exit(a, 0);
  return bench::unwrap(isa::make_program("block-straight-line", a, entry),
                       "assemble straight-line");
}

struct RunResult {
  double wall_ms = 1e18;  // min over reps
  std::uint64_t cycles = 0;
  std::uint64_t insns = 0;
  std::uint64_t steps = 0;
  int exit_code = -1;
  cpu::BlockCacheStats bcache;
  cpu::DataTlbStats dtlb;
};

RunResult run_config(const isa::Program& program, const EngineCfg& cfg,
                     const bench::Setup& setup) {
  RunResult result;
  for (int rep = 0; rep < kReps; ++rep) {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.block_exec_enabled = cfg.block;
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load");
    if (setup) setup(machine, tid);
    const auto start = std::chrono::steady_clock::now();
    const auto stats = machine.run();
    const auto end = std::chrono::steady_clock::now();
    if (!stats.all_exited) {
      bench::die("machine did not quiesce: " + machine.last_fatal());
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    result.wall_ms = std::min(result.wall_ms, ms);
    if (rep > 0 && result.cycles != machine.total_cycles()) {
      bench::die("simulated cycles varied between repetitions");
    }
    result.cycles = machine.total_cycles();
    result.insns = machine.total_insns();
    result.steps = machine.total_steps();
    result.exit_code = machine.find_task(tid)->exit_code;
    result.bcache = machine.block_cache_totals();
    result.dtlb = machine.data_tlb_totals();
  }
  return result;
}

// The Figure-5 single-worker webserver: 36 keepalive connections, kRequests
// requests against a static file — the syscall-intensive macro workload the
// sled gate is measured on.
enum class Mech { kBaseline, kSud, kZpoline, kLazypoline };

void install_mech(kern::Machine& machine, kern::Tid tid, Mech mech,
                  const std::shared_ptr<interpose::DummyHandler>& dummy) {
  switch (mech) {
    case Mech::kBaseline:
      break;
    case Mech::kSud: {
      mechanisms::SudMechanism mechanism;
      bench::check(mechanism.install(machine, tid, dummy), "sud");
      break;
    }
    case Mech::kZpoline: {
      zpoline::ZpolineMechanism mechanism;
      bench::check(mechanism.install(machine, tid, dummy), "zpoline");
      break;
    }
    case Mech::kLazypoline: {
      core::LazypolineConfig config;
      config.xstate = core::XstateMode::kFull;
      auto runtime = core::Lazypoline::create(machine, config);
      bench::check(runtime->install(machine, tid, dummy), "lazypoline");
      break;
    }
  }
}

RunResult run_webserver(Mech mech, const EngineCfg& cfg) {
  RunResult result;
  const apps::ServerProfile& profile = apps::nginx_profile();
  for (int rep = 0; rep < kWebReps; ++rep) {
    kern::Machine machine;
    machine.mmap_min_addr = 0;
    machine.block_exec_enabled = cfg.block;
    bench::check(machine.vfs().put_file_of_size("index.html", kWebFileSize),
                 "seed file");

    kern::ClientWorkload workload;
    workload.connections = 36;
    workload.total_requests = kWebRequests;
    workload.response_bytes = profile.header_bytes + kWebFileSize;
    const int listener = machine.net().create_listener(workload);

    const auto program = bench::unwrap(
        apps::make_webserver(machine, profile, "index.html"), "build server");
    machine.register_program(program);
    const kern::Tid tid = bench::unwrap(machine.load(program), "load worker");
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = listener;
    machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
    auto dummy = std::make_shared<interpose::DummyHandler>();
    install_mech(machine, tid, mech, dummy);

    const auto start = std::chrono::steady_clock::now();
    const auto stats = machine.run(4'000'000'000ULL);
    const auto end = std::chrono::steady_clock::now();
    if (!stats.all_exited) bench::die("server hung: " + machine.last_fatal());
    if (machine.net().completed_requests(listener) != kWebRequests) {
      bench::die("dropped requests");
    }
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    result.wall_ms = std::min(result.wall_ms, ms);
    if (rep > 0 && result.cycles != machine.total_cycles()) {
      bench::die("simulated cycles varied between repetitions");
    }
    result.cycles = machine.total_cycles();
    result.insns = machine.total_insns();
    result.steps = machine.total_steps();
    result.exit_code = machine.find_task(tid)->exit_code;
    result.bcache = machine.block_cache_totals();
    result.dtlb = machine.data_tlb_totals();
  }
  return result;
}

// Dies unless every configuration agrees on every simulated observable.
void require_identical(const std::string& workload,
                       const std::vector<const RunResult*>& runs) {
  const RunResult& ref = *runs.front();
  for (const RunResult* run : runs) {
    if (ref.cycles != run->cycles || ref.insns != run->insns ||
        ref.steps != run->steps || ref.exit_code != run->exit_code) {
      std::fprintf(stderr,
                   "FAIL: %s diverged between engines:\n"
                   "  reference: cycles=%llu insns=%llu steps=%llu exit=%d\n"
                   "  other:     cycles=%llu insns=%llu steps=%llu exit=%d\n",
                   workload.c_str(),
                   static_cast<unsigned long long>(ref.cycles),
                   static_cast<unsigned long long>(ref.insns),
                   static_cast<unsigned long long>(ref.steps), ref.exit_code,
                   static_cast<unsigned long long>(run->cycles),
                   static_cast<unsigned long long>(run->insns),
                   static_cast<unsigned long long>(run->steps),
                   run->exit_code);
      std::exit(1);
    }
  }
}

std::string result_json(const std::string& workload, const std::string& config,
                        const RunResult& r, double speedup) {
  return metrics::JsonObject()
      .add("workload", workload)
      .add("config", config)
      .add("wall_ms", r.wall_ms)
      .add("speedup_x", speedup)
      .add("sim_cycles", r.cycles)
      .add("insns_retired", r.insns)
      .add("machine_steps", r.steps)
      .add("bcache_hits", r.bcache.hits)
      .add("bcache_misses", r.bcache.misses)
      .add("bcache_blocks_built", r.bcache.blocks_built)
      .add("bcache_invalidations", r.bcache.invalidations)
      .add("dtlb_read_hits", r.dtlb.read_hits)
      .add("dtlb_write_hits", r.dtlb.write_hits)
      .render();
}

void add_row(metrics::Table& table, const std::string& workload,
             const EngineCfg& cfg, const RunResult& r, double speedup) {
  table.add_row({workload, cfg.name, format_double(r.wall_ms, 3),
                 metrics::ratio(speedup), std::to_string(r.cycles),
                 std::to_string(r.insns)});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  const std::string json_path = cli.positional_or(0, "BENCH_block_exec.json");
  std::vector<std::string> results;

  metrics::Table table({"workload", "config", "wall ms (min)", "speedup",
                        "sim cycles", "insns"});

  // --- straight-line throughput + block gate --------------------------------
  const auto program = make_straight_line(kStraightLineIters);
  const RunResult sl_ref = run_config(program, kReference, nullptr);
  const RunResult sl_blk = run_config(program, kBlock, nullptr);
  require_identical("straight-line", {&sl_ref, &sl_blk});
  if (sl_blk.bcache.hits == 0) {
    std::fprintf(stderr, "FAIL: engine-on run recorded no block-cache hits\n");
    return 1;
  }
  const double block_speedup = sl_ref.wall_ms / sl_blk.wall_ms;
  add_row(table, "straight-line", kReference, sl_ref, 1.0);
  add_row(table, "straight-line", kBlock, sl_blk, block_speedup);
  results.push_back(result_json("straight-line", "reference", sl_ref, 1.0));
  results.push_back(
      result_json("straight-line", "block", sl_blk, block_speedup));

  // --- per-mechanism micro-loop determinism ---------------------------------
  // The interposed paths bounce through host code and signals, exercising the
  // engine's fallback edges; each must be cycle-identical across both
  // configurations.
  const auto micro = bench::make_micro_loop(kMicroIters);
  auto dummy = std::make_shared<interpose::DummyHandler>();
  const struct {
    const char* name;
    bench::Setup setup;
  } mechanisms[] = {
      {"native", bench::setup_none()},
      {"sud", bench::setup_sud(dummy)},
      {"zpoline", bench::setup_zpoline(micro, dummy)},
      {"lazypoline",
       bench::setup_lazypoline(micro, dummy, core::XstateMode::kFull, true)},
  };
  for (const auto& mechanism : mechanisms) {
    const RunResult m_ref = run_config(micro, kReference, mechanism.setup);
    const RunResult m_blk = run_config(micro, kBlock, mechanism.setup);
    require_identical(mechanism.name, {&m_ref, &m_blk});
    add_row(table, mechanism.name, kBlock, m_blk,
            m_ref.wall_ms / m_blk.wall_ms);
    results.push_back(result_json(mechanism.name, "reference", m_ref, 1.0));
    results.push_back(result_json(mechanism.name, "block", m_blk,
                                  m_ref.wall_ms / m_blk.wall_ms));
  }

  // --- webserver macro workload + sled gate ---------------------------------
  metrics::Table wtable({"workload", "config", "wall ms (min)", "speedup",
                         "sim cycles", "insns"});
  const struct {
    const char* name;
    Mech mech;
  } web_mechs[] = {{"web-native", Mech::kBaseline},
                   {"web-sud", Mech::kSud},
                   {"web-zpoline", Mech::kZpoline},
                   {"web-lazypoline", Mech::kLazypoline}};
  double web_gate_min = 1e18;
  std::uint64_t sud_invalidations = 0;
  std::uint64_t zpoline_invalidations = 0;
  for (const auto& wm : web_mechs) {
    const RunResult w_ref = run_webserver(wm.mech, kReference);
    const RunResult w_blk = run_webserver(wm.mech, kBlock);
    require_identical(wm.name, {&w_ref, &w_blk});
    const double vs_ref = w_ref.wall_ms / w_blk.wall_ms;
    add_row(wtable, wm.name, kReference, w_ref, 1.0);
    add_row(wtable, wm.name, kBlock, w_blk, vs_ref);
    results.push_back(result_json(wm.name, "reference", w_ref, 1.0));
    results.push_back(result_json(wm.name, "block", w_blk, vs_ref));
    if (wm.mech == Mech::kZpoline || wm.mech == Mech::kLazypoline) {
      web_gate_min = std::min(web_gate_min, vs_ref);
    }
    if (wm.mech == Mech::kSud) sud_invalidations = w_blk.bcache.invalidations;
    if (wm.mech == Mech::kZpoline) {
      zpoline_invalidations = w_blk.bcache.invalidations;
    }
  }

  std::printf(
      "== Execution engines (straight-line %llu iters x %d ops, min of %d) "
      "==\n%s\n",
      static_cast<unsigned long long>(kStraightLineIters), kUnroll, kReps,
      table.render().c_str());
  std::printf(
      "== Webserver macro workload (nginx, %llu requests, min of %d) ==\n%s\n",
      static_cast<unsigned long long>(kWebRequests), kWebReps,
      wtable.render().c_str());
  // Single-task microbenchmark: --cpus tags the artifact for comparability.
  bench::write_json_report(json_path, "block_exec", results, cli.cpus);

  bool ok = true;
  if (block_speedup < kBlockGate) {
    std::fprintf(stderr, "FAIL: superblock engine speedup %.3fx < %.2fx gate\n",
                 block_speedup, kBlockGate);
    ok = false;
  }
  // The SUD page-split regression gate: with the selector on its own RW page
  // a selector flip is no longer an SMC event, so SUD invalidates no more
  // cached blocks than zpoline (both only pay the install-time rewrites).
  if (sud_invalidations > zpoline_invalidations + 8) {
    std::fprintf(stderr,
                 "FAIL: SUD invalidated %llu cached blocks vs zpoline's %llu "
                 "(selector byte sharing the stub's executable page?)\n",
                 static_cast<unsigned long long>(sud_invalidations),
                 static_cast<unsigned long long>(zpoline_invalidations));
    ok = false;
  }
  if (web_gate_min < kWebGate) {
    std::fprintf(stderr,
                 "FAIL: superblock engine %.3fx over reference on the "
                 "zpoline/lazypoline webserver < %.2fx gate\n",
                 web_gate_min, kWebGate);
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "PASS: straight-line block speedup %.3fx >= %.2fx, zpoline/lazypoline "
      "webserver block speedup %.3fx >= %.2fx over reference, SUD "
      "invalidations at zpoline level, all workloads cycle/step-identical "
      "across engines\n",
      block_speedup, kBlockGate, web_gate_min, kWebGate);
  return 0;
}
