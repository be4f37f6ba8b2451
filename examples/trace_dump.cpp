// trace_dump — the always-on tracing front-end (src/trace). Runs a workload
// under one interposition mechanism with a Tracer attached, prints the
// metrics-registry summary, and writes a Chrome trace-event JSON file that
// loads directly into Perfetto (ui.perfetto.dev) or chrome://tracing: one
// track per simulated task, one span per interposed syscall with the
// mechanism as its category, instants for site rewrites, SIGSYS deliveries,
// and selector flips.
//
//   ./build/examples/trace_dump [mechanism] [workload] [out.json] [--policy]
//       mechanism: lazypoline (default) | sud | zpoline | ptrace
//       workload:  webserver (default)  | getpid-loop
//       --policy:  enforce the workload's statically extracted syscall-flow
//                  automaton (src/policy) during the run — the summary then
//                  shows the per-state policy counter table, and after the
//                  run the flight-recorder ring is fed back into the dynamic
//                  learner to compare against the static automaton.
//
// Build & run:  cmake --build build && ./build/examples/trace_dump
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/minilibc.hpp"
#include "apps/webserver.hpp"
#include "core/lazypoline.hpp"
#include "isa/assemble.hpp"
#include "kernel/machine.hpp"
#include "kernel/syscalls.hpp"
#include "mechanisms/ptrace_tool.hpp"
#include "mechanisms/sud_tool.hpp"
#include "policy/enforce.hpp"
#include "policy/extract.hpp"
#include "policy/from_flight_recorder.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "zpoline/zpoline.hpp"

using namespace lzp;

namespace {

constexpr std::uint64_t kSeed = 0x1A5F'9E37ULL;

bool install(kern::Machine& machine, kern::Tid tid,
             const std::shared_ptr<interpose::SyscallHandler>& handler,
             const std::string& mechanism) {
  Status status;
  if (mechanism == "ptrace") {
    status = mechanisms::PtraceMechanism().install(machine, tid, handler);
  } else if (mechanism == "sud") {
    status = mechanisms::SudMechanism().install(machine, tid, handler);
  } else if (mechanism == "zpoline") {
    status = zpoline::ZpolineMechanism().install(machine, tid, handler);
  } else if (mechanism == "lazypoline") {
    auto runtime = core::Lazypoline::create(machine, {});
    status = runtime->install(machine, tid, handler);
  } else {
    std::fprintf(stderr, "unknown mechanism '%s'\n", mechanism.c_str());
    return false;
  }
  if (!status.is_ok()) {
    std::fprintf(stderr, "install %s: %s\n", mechanism.c_str(),
                 status.to_string().c_str());
    return false;
  }
  return true;
}

isa::Program make_getpid_loop() {
  isa::Assembler a;
  const auto entry = a.new_label();
  const auto loop = a.new_label();
  const auto done = a.new_label();
  a.bind(entry);
  a.mov(isa::Gpr::rbx, 50);
  a.bind(loop);
  a.cmp(isa::Gpr::rbx, 0);
  a.jz(done);
  a.mov(isa::Gpr::rax, kern::kSysGetpid);
  a.syscall_();
  a.sub(isa::Gpr::rbx, 1);
  a.jmp(loop);
  a.bind(done);
  apps::emit_exit(a, 0);
  return std::move(isa::make_program("getpid-loop", a, entry)).value();
}

// Prepares the machine and loads the workload; installation happens in main
// so the handler can be wrapped (e.g. in a PolicyEnforcer) once the loaded
// program — the automaton-extraction input — is known.
struct Setup {
  isa::Program program;
  std::vector<kern::Tid> tids;
};

bool setup_workload(kern::Machine& machine, const std::string& workload,
                    Setup* out) {
  machine.mmap_min_addr = 0;
  machine.reseed_rng(kSeed);
  if (workload == "getpid-loop") {
    out->program = make_getpid_loop();
    machine.register_program(out->program);
    auto tid = machine.load(out->program);
    if (!tid.is_ok()) return false;
    out->tids.push_back(tid.value());
    return true;
  }
  if (workload != "webserver") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return false;
  }

  const apps::ServerProfile profile = apps::nginx_profile();
  constexpr std::uint64_t kFileSize = 1024;
  if (!machine.vfs().put_file_of_size("index.html", kFileSize).is_ok()) {
    return false;
  }
  kern::ClientWorkload client;
  client.connections = 4;
  client.total_requests = 60;
  client.response_bytes = profile.header_bytes + kFileSize;
  const int listener = machine.net().create_listener(client);

  auto program = apps::make_webserver(machine, profile, "index.html");
  if (!program.is_ok()) {
    std::fprintf(stderr, "webserver: %s\n", program.status().to_string().c_str());
    return false;
  }
  out->program = std::move(program).value();
  machine.register_program(out->program);
  for (int worker = 0; worker < 2; ++worker) {
    auto tid = machine.load(out->program);
    if (!tid.is_ok()) return false;
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = listener;
    machine.find_task(tid.value())->process->install_fd_at(apps::kListenerFd,
                                                           entry);
    out->tids.push_back(tid.value());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool policy_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--policy") {
      policy_mode = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const std::string mechanism = positional.size() > 0 ? positional[0] : "lazypoline";
  const std::string workload = positional.size() > 1 ? positional[1] : "webserver";
  const std::string out_path = positional.size() > 2 ? positional[2] : "trace.json";

  trace::Tracer tracer;
  kern::Machine machine;
  // Attach before install so mechanism arming (selector writes, site
  // rewrites) lands in the trace too.
  tracer.attach(machine);

  Setup setup;
  if (!setup_workload(machine, workload, &setup)) return 1;

  std::shared_ptr<interpose::SyscallHandler> handler =
      std::make_shared<interpose::DummyHandler>();
  policy::StaticExtraction extraction;
  std::shared_ptr<policy::PolicyEnforcer> enforcer;
  if (policy_mode) {
    extraction = policy::extract_static(setup.program);
    auto created =
        policy::PolicyEnforcer::create(extraction.automaton, {}, handler);
    if (!created.is_ok()) {
      std::fprintf(stderr, "policy enforcer: %s\n",
                   created.status().to_string().c_str());
      return 1;
    }
    enforcer = created.value();
    handler = enforcer;
  }
  for (const kern::Tid tid : setup.tids) {
    if (!install(machine, tid, handler, mechanism)) return 1;
  }

  const auto stats = machine.run(400'000'000ULL);
  if (!stats.all_exited) {
    std::fprintf(stderr, "workload hung: %s\n", machine.last_fatal().c_str());
    return 1;
  }

  std::printf("%s under %s: %llu machine steps, %llu retired instructions\n\n",
              workload.c_str(), mechanism.c_str(),
              static_cast<unsigned long long>(machine.total_steps()),
              static_cast<unsigned long long>(stats.insns));
  // The engine's fallback counters join the summary's counter table.
  trace::record_fallback_stats(tracer.metrics(), machine.fallback_totals());
  std::printf("%s", trace::render_summary(tracer).c_str());

  if (policy_mode) {
    // Close the loop: the ring the tracer just filled is itself a dynamic
    // policy source. Learn from it and compare with the enforced (static)
    // automaton.
    const policy::Automaton learned =
        policy::learn_from_flight_recorder(tracer.ring(), workload);
    const policy::EnforcerStats pstats = enforcer->stats();
    std::printf("\n== policy pipeline ==\n");
    std::printf("enforced (static):  %zu states, %zu edges\n",
                extraction.automaton.state_count(),
                extraction.automaton.edge_count());
    std::printf("learned from ring:  %zu states, %zu edges (%llu events "
                "dropped by the ring)\n",
                learned.state_count(), learned.edge_count(),
                static_cast<unsigned long long>(tracer.ring().dropped()));
    std::printf("static contains learned: %s\n",
                extraction.automaton.contains(learned) ? "yes" : "NO");
    std::printf("enforcer: %llu transitions, %llu violations\n",
                static_cast<unsigned long long>(pstats.transitions_checked),
                static_cast<unsigned long long>(pstats.violations));
  }

  std::ofstream out(out_path);
  out << trace::export_chrome_json(tracer);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nperfetto json -> %s (load at ui.perfetto.dev)\n",
              out_path.c_str());
  return 0;
}
