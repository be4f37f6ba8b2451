#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "interpose/handler.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/seccomp_bpf_tool.hpp"
#include "mechanisms/seccomp_user_tool.hpp"
#include "mechanisms/sud_tool.hpp"
#include "policy/automaton.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "profile/profiler.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "spans.hpp"
#include "zpoline/zpoline.hpp"

namespace hostbench {
namespace {

using namespace lzp;

// --- sizes -------------------------------------------------------------------
// Chosen so one pass of every workload takes about a second of host time on
// a 4-core x86-64 host: long enough that a run's median pass is steady.

// fig5: wrk-style client, 36 keepalive connections (paper §V-B).
constexpr std::uint64_t kFig5Requests = 1200;
constexpr std::uint32_t kFig5Connections = 36;
// micro: iterations of syscall(500) per job.
constexpr std::uint64_t kMicroIterations = 200'000;
// tools: nginx, 4K file, 2 workers (the record_overhead webserver shape).
constexpr std::uint64_t kToolsRequests = 1200;
constexpr std::uint32_t kToolsConnections = 8;
// fig5's --cpus=N scale-out point: 8 workers with private listeners on 2
// simulated CPUs. The CPU count is fixed rather than taken from the host, so
// the fingerprint is the same on every host; 2 lanes fit any host the
// benchmark targets.
constexpr unsigned kSmpWorkers = 8;
constexpr unsigned kSmpCpus = 2;
constexpr std::uint64_t kSmpRequestsPerWorker = 600;
constexpr std::uint32_t kSmpConnections = 4;

constexpr std::uint64_t kInsnBudget = 4'000'000'000ULL;

// --- handlers -----------------------------------------------------------------

// The dummy interposition function of the paper's measurements (§V-B),
// spanned so the traced run splits handler time from kernel time.
class PassThrough final : public interpose::SyscallHandler {
 public:
  std::uint64_t handle(interpose::InterposeContext& ctx) override {
    const Span handler("interpose.handler");
    const Span kernel("kernel.syscall");
    return ctx.pass_through();
  }
  [[nodiscard]] std::string name() const override { return "pass-through"; }
};

// Spans a decorator handler (Recorder, Replayer, PolicyEnforcer). Its inner
// handler is spanned separately, so the decorator's self time is its own.
class Timed final : public interpose::SyscallHandler {
 public:
  Timed(const char* span, std::shared_ptr<interpose::SyscallHandler> inner)
      : span_(span), inner_(std::move(inner)) {}
  std::uint64_t handle(interpose::InterposeContext& ctx) override {
    const Span span(span_);
    return inner_->handle(ctx);
  }
  bool pre_execute(interpose::InterposeContext& ctx,
                   std::uint64_t* result) override {
    const Span span(span_);
    return inner_->pre_execute(ctx, result);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  const char* span_;
  std::shared_ptr<interpose::SyscallHandler> inner_;
};

// --- mechanisms ---------------------------------------------------------------

enum class Mech {
  kNative,
  kPtrace,
  kSeccompBpf,
  kSeccompUser,
  kSud,
  kSudAllow,
  kZpoline,
  kLazypolineNoX,
  kLazypoline,
};

struct MechInfo {
  const char* name;
  const char* family;
};

MechInfo info(Mech mech) {
  switch (mech) {
    case Mech::kNative: return {"native", "native"};
    case Mech::kPtrace: return {"ptrace", "ptrace"};
    case Mech::kSeccompBpf: return {"seccomp-bpf", "seccomp"};
    case Mech::kSeccompUser: return {"seccomp-user", "seccomp"};
    case Mech::kSud: return {"sud", "sud"};
    case Mech::kSudAllow: return {"sud-allow", "sud"};
    case Mech::kZpoline: return {"zpoline", "zpoline"};
    case Mech::kLazypolineNoX: return {"lazypoline-noxstate", "lazypoline"};
    case Mech::kLazypoline: return {"lazypoline", "lazypoline"};
  }
  return {"?", "?"};
}

// Installed mechanisms, kept alive until their stats are read.
struct Installed {
  std::vector<std::shared_ptr<core::Lazypoline>> lazypolines;
  std::vector<std::unique_ptr<zpoline::ZpolineMechanism>> zpolines;
  Status status;

  void counters(Counters& out) const {
    for (const auto& runtime : lazypolines) {
      out["core.slow_path_hits"] += runtime->stats().slow_path_hits;
      out["core.fast_path_hits"] += runtime->stats().fast_path_hits();
    }
    for (const auto& mechanism : zpolines) {
      out["zpoline.sites_rewritten"] += mechanism->stats().sites_rewritten;
    }
  }
};

// Installs `mech` on `tid`. `prerewrite` puts lazypoline in the steady
// state of Table II (every site already rewritten) instead of live discovery.
void install(kern::Machine& machine, kern::Tid tid, Mech mech,
             const std::shared_ptr<interpose::SyscallHandler>& handler,
             const isa::Program& program, bool prerewrite, Installed& into) {
  const Span span("mechanisms.install");
  auto keep = [&into](Status status) {
    if (into.status.is_ok()) into.status = std::move(status);
  };
  switch (mech) {
    case Mech::kNative:
      break;
    case Mech::kPtrace:
      keep(mechanisms::PtraceMechanism().install(machine, tid, handler));
      break;
    case Mech::kSeccompBpf:
      keep(mechanisms::SeccompBpfMechanism::install_monitoring_filter(machine,
                                                                      tid));
      break;
    case Mech::kSeccompUser:
      keep(mechanisms::SeccompUserMechanism().install(machine, tid, handler));
      break;
    case Mech::kSud:
      keep(mechanisms::SudMechanism().install(machine, tid, handler));
      break;
    case Mech::kSudAllow:
      keep(mechanisms::SudMechanism::install_always_allow(machine, tid));
      break;
    case Mech::kZpoline:
      into.zpolines.push_back(std::make_unique<zpoline::ZpolineMechanism>());
      keep(into.zpolines.back()->install(machine, tid, handler));
      break;
    case Mech::kLazypolineNoX:
    case Mech::kLazypoline: {
      core::LazypolineConfig config;
      config.xstate = mech == Mech::kLazypoline ? core::XstateMode::kFull
                                                : core::XstateMode::kNone;
      auto runtime = core::Lazypoline::create(machine, config);
      keep(runtime->install(machine, tid, handler));
      if (prerewrite) {
        for (std::uint64_t site : program.true_syscall_addresses()) {
          keep(runtime->rewrite_site_manually(tid, site));
        }
      }
      into.lazypolines.push_back(std::move(runtime));
      break;
    }
  }
}

// --- one job ------------------------------------------------------------------

// Times the set-up and run phases of one job and collects what every job
// reports: fingerprint, engine counters, failures.
struct JobRun {
  explicit JobRun(std::uint64_t seed) {
    machine.mmap_min_addr = 0;
    machine.reseed_rng(seed);
  }

  void fail(const std::string& why) {
    if (out.error.empty()) out.error = why;
  }

  // Runs the machine single-CPU (cpus == 0) or on run_smp.
  void run(unsigned cpus = 0, std::uint64_t smp_seed = 0) {
    const Clock::time_point run_start = Clock::now();
    out.setup_s = seconds_between(start, run_start);
    bool exited = false;
    {
      const Span span("kernel.run", /*root=*/true);
      if (cpus == 0) {
        exited = machine.run(kInsnBudget).all_exited;
      } else {
        kern::SmpConfig config;
        config.cpus = cpus;
        config.seed = smp_seed;
        smp = machine.run_smp(config, kInsnBudget);
        exited = smp.all_exited;
      }
    }
    out.run_s = seconds_between(run_start, Clock::now());
    if (!exited) fail("hung: " + machine.last_fatal());
  }

  // Fills the fingerprint and counters; call once, after run().
  JobOutcome finish(const std::vector<kern::Tid>& tids,
                    std::uint64_t requests, const Installed& installed) {
    Fingerprint& fp = out.fingerprint;
    fp.cycles = machine.total_cycles();
    fp.insns = machine.total_insns();
    fp.steps = machine.total_steps();
    fp.requests = requests;
    for (kern::Tid tid : tids) {
      const kern::Task* task = machine.find_task(tid);
      if (!fp.exits.empty()) fp.exits += ",";
      fp.exits += task == nullptr ? "?" : std::to_string(task->exit_code);
    }
    Counters& c = out.counters;
    const cpu::BlockCacheStats blocks = machine.block_cache_totals();
    c["cpu.block_lookups"] = blocks.hits + blocks.misses;
    c["cpu.blocks_built"] = blocks.blocks_built;
    c["cpu.block_invalidations"] = blocks.invalidations;
    const cpu::DecodeCacheStats decodes = machine.decode_cache_totals();
    c["cpu.ref_steps"] = decodes.hits + decodes.misses;
    installed.counters(c);
    if (!smp.cpus.empty()) {
      c["smp.barriers"] = smp.barriers;
      c["smp.steals"] = smp.steals;
      c["smp.shootdowns"] = smp.shootdowns;
      std::uint64_t max_steps = 0;
      std::uint64_t sum_steps = 0;
      for (const kern::CpuStats& cpu : smp.cpus) {
        max_steps = std::max(max_steps, cpu.steps);
        sum_steps += cpu.steps;
      }
      if (sum_steps != 0) {
        out.lane_imbalance = static_cast<double>(max_steps) *
                             static_cast<double>(smp.cpus.size()) /
                             static_cast<double>(sum_steps);
      }
    }
    if (!installed.status.is_ok()) fail("install: " + installed.status.to_string());
    return out;
  }

  // Declared before `machine`, so set-up time includes its construction.
  Clock::time_point start = Clock::now();
  kern::Machine machine;
  kern::SmpStats smp;
  JobOutcome out;
};

// --- the webserver (fig5, tools) -------------------------------------------

struct WebSpec {
  apps::ServerProfile profile;
  std::uint64_t file_size = 0;
  int workers = 1;
  std::uint32_t connections = 0;
  std::uint64_t requests = 0;      // per listener
  bool private_listeners = false;  // one listener per worker (SO_REUSEPORT)
  bool live_client = true;         // false under replay: the trace feeds it
};

struct Web {
  isa::Program program;
  std::vector<kern::Tid> tids;
  std::vector<int> listeners;
  Status status;

  [[nodiscard]] std::uint64_t served(kern::Machine& machine) const {
    std::uint64_t total = 0;
    for (int listener : listeners) {
      total += machine.net().completed_requests(listener);
    }
    return total;
  }
};

Web build_web(kern::Machine& machine, const WebSpec& spec) {
  Web web;
  web.status = machine.vfs().put_file_of_size("index.html", spec.file_size);
  auto listener = [&] {
    kern::ClientWorkload client;
    client.connections = spec.connections;
    client.total_requests = spec.live_client ? spec.requests : 0;
    client.response_bytes = spec.profile.header_bytes + spec.file_size;
    web.listeners.push_back(machine.net().create_listener(client));
  };
  if (!spec.private_listeners) listener();
  {
    const Span span("apps.build");
    auto program = apps::make_webserver(machine, spec.profile, "index.html");
    if (!program.is_ok()) {
      web.status = program.status();
      return web;
    }
    web.program = std::move(program).value();
  }
  machine.register_program(web.program);
  for (int w = 0; w < spec.workers; ++w) {
    if (spec.private_listeners) listener();
    Result<kern::Tid> tid = [&] {
      const Span span("kernel.load");
      return machine.load(web.program);
    }();
    if (!tid.is_ok()) {
      web.status = tid.status();
      return web;
    }
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = web.listeners.back();
    machine.find_task(tid.value())->process->install_fd_at(apps::kListenerFd,
                                                           entry);
    web.tids.push_back(tid.value());
  }
  return web;
}

std::string size_name(std::uint64_t bytes) {
  return std::to_string(bytes / 1024) + "K";
}

// A webserver job under `mech` with the dummy handler (fig5). `cpus` > 0 runs
// it on run_smp.
Job web_job(const std::string& name, const WebSpec& spec, Mech mech,
            unsigned cpus) {
  Job job;
  job.name = name;
  job.mech = info(mech).family;
  job.run = [spec, mech, cpus](std::uint64_t seed) {
    JobRun job(seed);
    Web web = build_web(job.machine, spec);
    if (!web.status.is_ok()) {
      job.fail("build: " + web.status.to_string());
      return job.out;
    }
    auto handler = std::make_shared<PassThrough>();
    Installed installed;
    for (kern::Tid tid : web.tids) {
      install(job.machine, tid, mech, handler, web.program,
              /*prerewrite=*/false, installed);
    }
    job.run(cpus, seed);
    const std::uint64_t served = web.served(job.machine);
    const std::uint64_t expected = spec.requests * web.listeners.size();
    if (served != expected) {
      job.fail("served " + std::to_string(served) + " of " +
               std::to_string(expected) + " requests");
    }
    return job.finish(web.tids, served, installed);
  };
  return job;
}

// --- fig5 ------------------------------------------------------------------------

std::vector<Unit> fig5() {
  std::vector<Unit> units;
  const apps::ServerProfile profiles[] = {apps::nginx_profile(),
                                          apps::lighttpd_profile()};
  const std::uint64_t sizes[] = {1024, 16 * 1024, 256 * 1024};
  const Mech mechs[] = {Mech::kNative, Mech::kZpoline, Mech::kLazypoline,
                        Mech::kSud};
  for (const auto& profile : profiles) {
    for (std::uint64_t size : sizes) {
      for (int workers : {1, 12}) {
        for (Mech mech : mechs) {
          WebSpec spec;
          spec.profile = profile;
          spec.file_size = size;
          spec.workers = workers;
          spec.connections = kFig5Connections;
          spec.requests = kFig5Requests;
          units.push_back({web_job(profile.name + "-" + size_name(size) + "-w" +
                                       std::to_string(workers) + "-" +
                                       info(mech).name,
                                   spec, mech, 0)});
        }
      }
    }
  }
  // The scale-out point: the only jobs of the benchmark that run
  // kernel/smp.cpp and base/thread_pool (with one CPU, run_smp falls back to
  // run()). Interposed runs are barrier-bound.
  for (Mech mech : {Mech::kNative, Mech::kLazypoline}) {
    WebSpec spec;
    spec.profile = apps::nginx_profile();
    spec.file_size = 16 * 1024;
    spec.workers = kSmpWorkers;
    spec.connections = kSmpConnections;
    spec.requests = kSmpRequestsPerWorker;
    spec.private_listeners = true;
    units.push_back({web_job("nginx-16K-w8-cpus" + std::to_string(kSmpCpus) +
                                 "-" + info(mech).name,
                             spec, mech, kSmpCpus)});
  }
  return units;
}

// --- micro -----------------------------------------------------------------------

// The §V-B loop: `iterations` x syscall(500), then exit(0).
Result<isa::Program> micro_loop(std::uint64_t iterations) {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, iterations);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, kern::kSysNonexistent);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return isa::make_program("micro-loop", a, entry);
}

std::vector<Unit> micro() {
  struct Row {
    Mech mech;
    const char* table2;  // Table II row, or nullptr
    double paper;
  };
  const Row rows[] = {
      {Mech::kNative, nullptr, 0.0},
      {Mech::kPtrace, nullptr, 0.0},
      {Mech::kSeccompBpf, nullptr, 0.0},
      {Mech::kSeccompUser, nullptr, 0.0},
      {Mech::kSud, "SUD", 20.8},
      {Mech::kSudAllow, "baseline with SUD enabled", 1.42},
      {Mech::kZpoline, "zpoline", 1.2},
      {Mech::kLazypolineNoX, "lazypoline w/o xstate", 1.66},
      {Mech::kLazypoline, "lazypoline", 2.38},
  };
  std::vector<Unit> units;
  for (const Row& row : rows) {
    Job job;
    job.name = std::string("syscall500-") + info(row.mech).name;
    job.mech = info(row.mech).family;
    if (row.table2 != nullptr) {
      job.table2_name = row.table2;
      job.table2_paper = row.paper;
    }
    const Mech mech = row.mech;
    job.run = [mech](std::uint64_t seed) {
      JobRun job(seed);
      Result<isa::Program> program = [] {
        const Span span("apps.build");
        return micro_loop(kMicroIterations);
      }();
      if (!program.is_ok()) {
        job.fail("assemble: " + program.status().to_string());
        return job.out;
      }
      job.machine.register_program(program.value());
      Result<kern::Tid> tid = [&] {
        const Span span("kernel.load");
        return job.machine.load(program.value());
      }();
      if (!tid.is_ok()) {
        job.fail("load: " + tid.status().to_string());
        return job.out;
      }
      Installed installed;
      install(job.machine, tid.value(), mech, std::make_shared<PassThrough>(),
              program.value(), /*prerewrite=*/true, installed);
      job.run();
      return job.finish({tid.value()}, 0, installed);
    };
    units.push_back({std::move(job)});
  }
  return units;
}

// --- tools -----------------------------------------------------------------------

WebSpec tools_spec() {
  WebSpec spec;
  spec.profile = apps::nginx_profile();
  spec.file_size = 4096;
  spec.workers = 2;
  spec.connections = kToolsConnections;
  spec.requests = kToolsRequests;
  return spec;
}

// What a record job hands to the replay job after it in the same unit.
struct Recording {
  replay::Trace trace;
  std::uint64_t insns = 0;
  std::string exits;
};

// Shared prologue of the tool jobs: the webserver, with the handler chain
// `make_handler` builds installed under `mech` on every worker.
struct ToolJob {
  JobRun job;
  Web web;
  Installed installed;

  ToolJob(std::uint64_t seed, Mech mech, bool live_client,
          const std::function<std::shared_ptr<interpose::SyscallHandler>(
              JobRun&, const Web&)>& make_handler)
      : job(seed) {
    WebSpec spec = tools_spec();
    spec.live_client = live_client;
    web = build_web(job.machine, spec);
    if (!web.status.is_ok()) {
      job.fail("build: " + web.status.to_string());
      return;
    }
    const auto handler = make_handler(job, web);
    if (handler == nullptr) return;
    for (kern::Tid tid : web.tids) {
      install(job.machine, tid, mech, handler, web.program,
              /*prerewrite=*/false, installed);
    }
  }
  [[nodiscard]] bool ready() const { return job.out.error.empty(); }
  JobOutcome finish() {
    return job.finish(web.tids, web.served(job.machine), installed);
  }
};

void check_served(ToolJob& tool) {
  const std::uint64_t served = tool.web.served(tool.job.machine);
  if (served != kToolsRequests) {
    tool.job.fail("served " + std::to_string(served) + " of " +
                  std::to_string(kToolsRequests) + " requests");
  }
}

Unit tools_unit(Mech mech) {
  const std::string prefix = std::string("nginx-4K-w2-") + info(mech).name;
  const std::string family = info(mech).family;
  auto recording = std::make_shared<Recording>();
  Unit unit;

  unit.push_back(Job{prefix + "-record", family, "", 0.0,
                     [mech, recording](std::uint64_t seed) {
    std::shared_ptr<replay::Recorder> recorder;
    ToolJob tool(seed, mech, /*live_client=*/true, [&](JobRun& job, const Web&) {
      recorder = std::make_shared<replay::Recorder>(std::make_shared<PassThrough>());
      recorder->attach(job.machine, seed, info(mech).name, "webserver");
      return std::make_shared<Timed>("replay.recorder", recorder);
    });
    if (!tool.ready()) return tool.job.out;
    tool.job.run();
    check_served(tool);
    if (recorder->uncaptured_nondeterminism()) {
      tool.job.fail("record audit: " + recorder->audit_report().front());
    }
    recorder->detach(tool.job.machine);
    JobOutcome out = tool.finish();
    recording->trace = recorder->take_trace();
    recording->insns = out.fingerprint.insns;
    recording->exits = out.fingerprint.exits;
    return out;
  }});

  unit.push_back(Job{prefix + "-replay", family, "", 0.0,
                     [mech, recording](std::uint64_t seed) {
    std::shared_ptr<replay::Replayer> replayer;
    ToolJob tool(seed, mech, /*live_client=*/false, [&](JobRun& job, const Web&) {
      replayer = std::make_shared<replay::Replayer>(std::move(recording->trace));
      replayer->attach(job.machine);
      return std::make_shared<Timed>("replay.replayer", replayer);
    });
    if (!tool.ready()) return tool.job.out;
    tool.job.run();
    if (replayer->diverged()) {
      tool.job.fail("replay diverged: " + replayer->status().to_string());
    } else if (!replayer->finished()) {
      tool.job.fail("replay left recorded syscalls unconsumed");
    }
    replayer->detach(tool.job.machine);
    if (tool.job.machine.total_insns() != recording->insns) {
      tool.job.fail("replay retired different instructions than the recording");
    }
    JobOutcome out = tool.finish();
    if (out.fingerprint.exits != recording->exits && out.error.empty()) {
      out.error = "replay exit codes differ from the recording";
    }
    return out;
  }});

  unit.push_back(Job{prefix + "-enforce", family, "", 0.0,
                     [mech](std::uint64_t seed) {
    std::shared_ptr<policy::PolicyEnforcer> enforcer;
    ToolJob tool(seed, mech, /*live_client=*/true,
                 [&](JobRun& job, const Web& web)
                     -> std::shared_ptr<interpose::SyscallHandler> {
      const policy::MinimizeResult minimized = [&] {
        const Span span("policy.extract");
        return policy::minimize(policy::extract_static(web.program).automaton);
      }();
      auto created = [&] {
        const Span span("policy.compile");
        return policy::PolicyEnforcer::create(minimized.automaton, {},
                                              std::make_shared<PassThrough>());
      }();
      if (!created.is_ok()) {
        job.fail("compile policy: " + created.status().to_string());
        return nullptr;
      }
      enforcer = std::move(created).value();
      return std::make_shared<Timed>("policy.enforcer", enforcer);
    });
    if (!tool.ready()) return tool.job.out;
    tool.job.run();
    check_served(tool);
    const policy::EnforcerStats stats = enforcer->stats();
    if (stats.violations != 0) {
      tool.job.fail(std::to_string(stats.violations) +
                    " violations of the webserver's own policy");
    }
    JobOutcome out = tool.finish();
    out.counters["bpf.insns_executed"] = stats.bpf_insns_executed;
    out.counters["policy.transitions_checked"] = stats.transitions_checked;
    return out;
  }});

  unit.push_back(Job{prefix + "-profile", family, "", 0.0,
                     [mech](std::uint64_t seed) {
    auto profiler = std::make_shared<profile::Profiler>();
    ToolJob tool(seed, mech, /*live_client=*/true, [&](JobRun& job, const Web&) {
      profiler->attach(job.machine);
      return std::make_shared<PassThrough>();
    });
    if (!tool.ready()) return tool.job.out;
    tool.job.run();
    check_served(tool);
    const auto classes = profiler->class_cycles();
    const std::uint64_t class_sum =
        std::accumulate(classes.begin(), classes.end(), std::uint64_t{0});
    if (class_sum != tool.job.machine.total_cycles() ||
        profiler->total_cycles() != tool.job.machine.total_cycles()) {
      tool.job.fail("profiler class sums do not add up to total_cycles");
    }
    profiler->detach();
    return tool.finish();
  }});
  return unit;
}

std::vector<Unit> tools() {
  return {tools_unit(Mech::kZpoline), tools_unit(Mech::kLazypoline),
          tools_unit(Mech::kSud)};
}

}  // namespace

std::string Fingerprint::to_string() const {
  return "cycles=" + std::to_string(cycles) + " insns=" + std::to_string(insns) +
         " steps=" + std::to_string(steps) +
         " requests=" + std::to_string(requests) + " exits=" + exits;
}

std::vector<Unit> make_workload(const std::string& name) {
  if (name == "fig5") return fig5();
  if (name == "micro") return micro();
  if (name == "tools") return tools();
  return {};
}

}  // namespace hostbench
