// Reproduces Figure 5: throughput impact of interposition on web servers
// serving static content of different sizes, with 1 and 12 workers.
//
// Setup mirrors §V-B: a wrk-style client with 36 keepalive connections
// continuously requests the same static resource; server and client share
// the machine ("localhost"), so the workload is maximally syscall-intensive.
// Mechanisms: baseline (native), zpoline, lazypoline without xstate
// preservation, lazypoline (full), and a typical SUD deployment. The
// lazypoline runs include the live slow-path discovery (no pre-rewriting):
// the macrobenchmark evaluates exactly that aggregated cost.
//
// Expected shape (paper): in the worst single-worker case lazypoline w/o
// xstate keeps ~95% of baseline (within ~2-4pp of zpoline); xstate costs at
// most ~5pp more; SUD loses roughly half the throughput at small sizes and
// is still noticeable at 256K; gaps shrink as the file size grows; with 12
// workers the client/loopback becomes the bottleneck and the fast
// mechanisms converge.
#include <chrono>
#include <cstdio>

#include "apps/webserver.hpp"
#include "bench_util.hpp"
#include "base/strings.hpp"
#include "metrics/report.hpp"
#include "trace/metrics_registry.hpp"

namespace {
using namespace lzp;

constexpr double kGhz = 2.1;
constexpr std::uint64_t kRequests = 2400;
// Peak request rate the 36-thread client + loopback stack can sustain
// (requests/s); caps multi-worker results like the real testbed.
constexpr double kClientCapRps = 220'000.0;

enum class Mech { kBaseline, kZpoline, kLazyNoX, kLazyFull, kSud };

// Simulator-cache counters accumulated across every simulated run, reported
// at the end so the figure's wall-clock cost is attributable (hit rate of
// the simulator hot loop, and how often the lazypoline/zpoline rewrites
// invalidated cached state). With the superblock engine on (the default) the
// hot loop is served by the block cache and the decode cache stays cold; the
// decode-cache table is the reference-path story under -DLZP_BLOCK_EXEC=OFF.
cpu::DecodeCacheStats g_dcache_totals;
cpu::BlockCacheStats g_bcache_totals;

// SMP scheduler telemetry accumulated across every run_smp via the shared
// counter surface (trace/metrics_registry.hpp is header-only, so this costs
// no extra link dependency). Reported at the end of --cpus=N mode — the fix
// for SmpStats having been accumulated but never surfaced.
trace::MetricsRegistry g_smp_metrics;

void accumulate_dcache(const kern::Machine& machine) {
  const cpu::DecodeCacheStats totals = machine.decode_cache_totals();
  g_dcache_totals.hits += totals.hits;
  g_dcache_totals.misses += totals.misses;
  g_dcache_totals.invalidations += totals.invalidations;
  g_dcache_totals.flushes += totals.flushes;
  const cpu::BlockCacheStats blocks = machine.block_cache_totals();
  g_bcache_totals.hits += blocks.hits;
  g_bcache_totals.misses += blocks.misses;
  g_bcache_totals.invalidations += blocks.invalidations;
  g_bcache_totals.flushes += blocks.flushes;
  g_bcache_totals.blocks_built += blocks.blocks_built;
}

void install_mech(kern::Machine& machine, kern::Tid tid, Mech mech,
                  const std::shared_ptr<interpose::DummyHandler>& dummy) {
  switch (mech) {
    case Mech::kBaseline:
      break;
    case Mech::kZpoline: {
      zpoline::ZpolineMechanism mechanism;
      bench::check(mechanism.install(machine, tid, dummy), "zpoline");
      break;
    }
    case Mech::kLazyNoX:
    case Mech::kLazyFull: {
      core::LazypolineConfig config;
      config.xstate = mech == Mech::kLazyFull ? core::XstateMode::kFull
                                              : core::XstateMode::kNone;
      auto runtime = core::Lazypoline::create(machine, config);
      bench::check(runtime->install(machine, tid, dummy), "lazypoline");
      break;
    }
    case Mech::kSud: {
      mechanisms::SudMechanism mechanism;
      bench::check(mechanism.install(machine, tid, dummy), "sud");
      break;
    }
  }
}

double run_one(const apps::ServerProfile& profile, std::uint64_t file_size,
               int workers, Mech mech) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  bench::check(machine.vfs().put_file_of_size("index.html", file_size),
               "seed file");

  kern::ClientWorkload workload;
  workload.connections = 36;
  workload.total_requests = kRequests;
  workload.response_bytes = profile.header_bytes + file_size;
  const int listener = machine.net().create_listener(workload);

  const auto program = bench::unwrap(
      apps::make_webserver(machine, profile, "index.html"), "build server");
  machine.register_program(program);

  auto dummy = std::make_shared<interpose::DummyHandler>();
  std::vector<kern::Tid> tids;
  for (int w = 0; w < workers; ++w) {
    const kern::Tid tid = bench::unwrap(machine.load(program), "load worker");
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = listener;
    machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
    tids.push_back(tid);
    install_mech(machine, tid, mech, dummy);
  }

  const auto stats = machine.run(4'000'000'000ULL);
  if (!stats.all_exited) bench::die("server hung: " + machine.last_fatal());
  if (machine.net().completed_requests(listener) != kRequests) {
    bench::die("dropped requests");
  }

  accumulate_dcache(machine);

  // Workers run on dedicated cores: wall time = the slowest worker.
  std::uint64_t wall_cycles = 0;
  for (kern::Tid tid : tids) {
    wall_cycles = std::max(wall_cycles, machine.find_task(tid)->cycles);
  }
  const double seconds = static_cast<double>(wall_cycles) / (kGhz * 1e9);
  const double rps = static_cast<double>(kRequests) / seconds;
  return std::min(rps, kClientCapRps);
}

// --- SMP mode (--cpus=N) ----------------------------------------------------
//
// The datacenter-scale variant: N independent worker processes, each with its
// own SO_REUSEPORT-style listener (private request budget, 4 keepalive
// connections), executed on a simulated N'-CPU machine via run_smp. Because
// every worker is a separate process with a private listener, the workload is
// embarrassingly parallel and the deterministic rebalancer spreads the
// single-task gang groups evenly; simulated wall time is the slowest CPU's
// worker, so interposition overhead dilutes as workers scale out.

struct SmpRun {
  double rps = 0.0;        // simulated requests/s, client-capped like the
                           // testbed: past the cap mechanisms converge
  double host_ms = 0.0;    // host wall time of machine.run_smp
  std::uint64_t shootdowns = 0;
  std::uint64_t steals = 0;
  std::uint64_t barriers = 0;
  std::uint64_t mailbox_signals = 0;
};

SmpRun run_one_smp(const apps::ServerProfile& profile, std::uint64_t file_size,
                   unsigned workers, Mech mech, unsigned cpus) {
  kern::Machine machine;
  machine.mmap_min_addr = 0;
  bench::check(machine.vfs().put_file_of_size("index.html", file_size),
               "seed file");

  const auto program = bench::unwrap(
      apps::make_webserver(machine, profile, "index.html"), "build server");
  machine.register_program(program);

  // Total request volume stays ~kRequests; each worker owns an equal share
  // (floor of 8 so the 256-worker point still exercises every worker).
  const std::uint64_t per_worker =
      std::max<std::uint64_t>(kRequests / workers, 8);

  auto dummy = std::make_shared<interpose::DummyHandler>();
  std::vector<kern::Tid> tids;
  std::vector<int> listeners;
  for (unsigned w = 0; w < workers; ++w) {
    kern::ClientWorkload workload;
    workload.connections = 4;
    workload.total_requests = per_worker;
    workload.response_bytes = profile.header_bytes + file_size;
    const int listener = machine.net().create_listener(workload);
    listeners.push_back(listener);

    const kern::Tid tid = bench::unwrap(machine.load(program), "load worker");
    kern::FdEntry entry;
    entry.kind = kern::FdEntry::Kind::kListener;
    entry.net_id = listener;
    machine.find_task(tid)->process->install_fd_at(apps::kListenerFd, entry);
    tids.push_back(tid);
    install_mech(machine, tid, mech, dummy);
  }

  kern::SmpConfig config;
  config.cpus = cpus;
  config.seed = 42;
  const auto start = std::chrono::steady_clock::now();
  const auto stats = machine.run_smp(config, 4'000'000'000ULL);
  const auto end = std::chrono::steady_clock::now();
  if (!stats.all_exited) bench::die("server hung: " + machine.last_fatal());
  for (int listener : listeners) {
    if (!machine.net().workload_done(listener)) bench::die("dropped requests");
  }

  accumulate_dcache(machine);

  // Simulated wall time = the slowest worker (each simulated CPU runs its
  // share in parallel; within a CPU, co-resident workers timeshare — their
  // cycle counters already include only their own work, so the max over
  // tasks *per CPU summed* would undercount; use max over per-CPU sums).
  std::vector<std::uint64_t> cpu_cycles(cpus, 0);
  for (kern::Tid tid : tids) {
    const kern::Task* task = machine.find_task(tid);
    cpu_cycles[task->cpu % cpus] += task->cycles;
  }
  std::uint64_t wall_cycles = 0;
  for (std::uint64_t c : cpu_cycles) wall_cycles = std::max(wall_cycles, c);

  SmpRun out;
  const double seconds = static_cast<double>(wall_cycles) / (kGhz * 1e9);
  out.rps = std::min(static_cast<double>(per_worker * workers) / seconds,
                     kClientCapRps);
  out.host_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.shootdowns = stats.shootdowns;
  out.steals = stats.steals;
  out.barriers = stats.barriers;
  out.mailbox_signals = stats.mailbox_signals;
  trace::record_smp_stats(g_smp_metrics, stats);
  return out;
}

int run_smp_mode(unsigned cpus, const std::string& json_path) {
  const apps::ServerProfile& profile = apps::nginx_profile();
  constexpr std::uint64_t kSize = 16 * 1024;
  std::printf("== Figure 5 (SMP): nginx 16K scale-out, %u simulated CPUs ==\n\n",
              cpus);

  const unsigned worker_counts[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  const struct {
    Mech mech;
    const char* name;
  } mechs[] = {{Mech::kBaseline, "baseline"},
               {Mech::kZpoline, "zpoline"},
               {Mech::kLazyFull, "lazypoline"},
               {Mech::kSud, "sud"}};

  std::vector<std::string> rows;
  metrics::Table table(
      {"workers", "baseline", "zpoline", "lazypoline", "SUD"});
  for (unsigned workers : worker_counts) {
    double base_rps = 0.0;
    std::vector<std::string> cells;
    cells.push_back(std::to_string(workers));
    for (const auto& m : mechs) {
      const SmpRun r = run_one_smp(profile, kSize, workers, m.mech, cpus);
      if (m.mech == Mech::kBaseline) base_rps = r.rps;
      const double pct = 100.0 * r.rps / base_rps;
      char buffer[64];
      if (m.mech == Mech::kBaseline) {
        std::snprintf(buffer, sizeof(buffer), "%9.0f", r.rps);
      } else {
        std::snprintf(buffer, sizeof(buffer), "%9.0f (%6.2f%%)", r.rps, pct);
      }
      cells.push_back(buffer);
      rows.push_back(metrics::JsonObject()
                         .add("kind", "throughput")
                         .add("workers", static_cast<std::uint64_t>(workers))
                         .add("mech", m.name)
                         .add("rps", r.rps)
                         .add("pct_of_baseline", pct)
                         .add("host_ms", r.host_ms)
                         .add("shootdowns", r.shootdowns)
                         .add("steals", r.steals)
                         .add("barriers", r.barriers)
                         .add("mailbox_signals", r.mailbox_signals)
                         .render());
    }
    table.add_row(cells);
  }
  std::printf("-- simulated rps (%% of baseline), overhead dilution --\n%s\n",
              table.render().c_str());

  // Host wall-clock speedup: the same 8-worker baseline workload executed on
  // 1 simulated CPU (serial scheduler) vs. `cpus` (parallel host threads).
  // Min-of-3 to shed host scheduler noise.
  double serial_ms = 1e18;
  double parallel_ms = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    serial_ms = std::min(
        serial_ms,
        run_one_smp(profile, kSize, 8, Mech::kBaseline, 1).host_ms);
    parallel_ms = std::min(
        parallel_ms,
        run_one_smp(profile, kSize, 8, Mech::kBaseline, cpus).host_ms);
  }
  const double speedup = serial_ms / parallel_ms;
  const unsigned host_cores = ThreadPool::host_cores();
  std::printf("-- host speedup (8 workers, baseline, min of 3) --\n");
  std::printf("1 cpu: %.2f ms   %u cpus: %.2f ms   speedup: %.2fx "
              "(host has %u core%s)\n\n",
              serial_ms, cpus, parallel_ms, speedup, host_cores,
              host_cores == 1 ? "" : "s");
  rows.push_back(metrics::JsonObject()
                     .add("kind", "speedup")
                     .add("workers", std::uint64_t{8})
                     .add("mech", "baseline")
                     .add("host_ms_1cpu", serial_ms)
                     .add("host_ms_smp", parallel_ms)
                     .add("host_speedup_x", speedup)
                     .render());

  // Scheduler telemetry summed over every run_smp above (throughput grid +
  // speedup reps): the previously write-only SmpStats counters, surfaced via
  // the shared MetricsRegistry counter space.
  std::printf("-- smp scheduler telemetry (all runs) --\n%s\n",
              metrics::counters_table(
                  {g_smp_metrics.counters().begin(),
                   g_smp_metrics.counters().end()})
                  .c_str());

  bench::write_json_report(json_path, "fig5_smp", rows, cpus);

  // Gate: >=2x host speedup at 8 simulated CPUs — only meaningful when the
  // host actually has >=8 cores to run the lanes on.
  if (cpus >= 8 && host_cores >= 8) {
    if (speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: host speedup %.2fx < 2.0x at %u CPUs "
                   "(%u host cores)\n",
                   speedup, cpus, host_cores);
      return 1;
    }
    std::printf("PASS: host speedup %.2fx >= 2.0x at %u CPUs\n", speedup,
                cpus);
  } else {
    std::printf("SKIP: >=2x speedup gate needs --cpus>=8 and >=8 host cores "
                "(have --cpus=%u, %u host core%s); measured %.2fx\n",
                cpus, host_cores, host_cores == 1 ? "" : "s", speedup);
  }
  return 0;
}

void run_grid(const apps::ServerProfile& profile, int workers) {
  std::printf("-- %s, %d worker%s (requests/s; %% of baseline) --\n",
              profile.name.c_str(), workers, workers == 1 ? "" : "s");
  metrics::Table table({"size", "baseline", "zpoline", "lazyp-nox", "lazypoline",
                        "SUD"});
  const std::uint64_t sizes[] = {1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024};
  for (std::uint64_t size : sizes) {
    const double base = run_one(profile, size, workers, Mech::kBaseline);
    auto cell = [&](Mech mech) {
      const double rps = run_one(profile, size, workers, mech);
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%8.0f (%5.2f%%)", rps,
                    100.0 * rps / base);
      return std::string(buffer);
    };
    char base_text[32];
    std::snprintf(base_text, sizeof(base_text), "%8.0f", base);
    table.add_row({lzp::human_size(size), base_text, cell(Mech::kZpoline),
                   cell(Mech::kLazyNoX), cell(Mech::kLazyFull),
                   cell(Mech::kSud)});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliArgs cli = bench::parse_cli(argc, argv);
  if (cli.cpus > 1) {
    return run_smp_mode(cli.cpus, cli.positional_or(0, "BENCH_smp.json"));
  }

  std::printf("== Figure 5: web server throughput under interposition ==\n\n");
  const std::string which = cli.positional_or(0, "");
  if (which.empty() || which == "--server=nginx" || which == "nginx") {
    run_grid(apps::nginx_profile(), 1);
    run_grid(apps::nginx_profile(), 12);
  }
  if (which.empty() || which == "--server=lighttpd" || which == "lighttpd") {
    run_grid(apps::lighttpd_profile(), 1);
    run_grid(apps::lighttpd_profile(), 12);
  }

  std::printf("-- simulator decode cache (all runs) --\n");
  std::printf("%s", metrics::counters_table(
                        {{"hits", g_dcache_totals.hits},
                         {"misses", g_dcache_totals.misses},
                         {"invalidations", g_dcache_totals.invalidations},
                         {"flushes", g_dcache_totals.flushes}})
                        .c_str());
  std::printf("hit rate: %s\n",
              metrics::percent(100.0 * g_dcache_totals.hit_rate()).c_str());

  std::printf("\n-- simulator block cache (all runs) --\n");
  std::printf("%s", metrics::counters_table(
                        {{"hits", g_bcache_totals.hits},
                         {"misses", g_bcache_totals.misses},
                         {"invalidations", g_bcache_totals.invalidations},
                         {"flushes", g_bcache_totals.flushes},
                         {"blocks built", g_bcache_totals.blocks_built}})
                        .c_str());
  std::printf("hit rate: %s\n",
              metrics::percent(100.0 * g_bcache_totals.hit_rate()).c_str());

  return 0;
}
