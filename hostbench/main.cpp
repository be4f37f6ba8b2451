// Host-time benchmark of the simulator (see README.md).
//
//   hostbench --workload fig5|micro|tools --seed N --seconds S --trace 0|1
//             --expected FILE [--trace-out FILE] [--write-expected]
//
// Runs the workload's batch of jobs pass after pass for S seconds, each job
// on a fresh kern::Machine, and prints one JSON object as the last line of
// standard output. Every run first makes one reference pass on the default
// seed, whose simulated fingerprints must equal FILE; the timed passes then
// use seed N, which permutes job order and seeds the machine RNG, the
// Recorder and run_smp. A job that hangs, drops a request, diverges on
// replay, violates its policy, mis-sums its profile or changes fingerprint
// between passes counts as failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
// Fewest timed passes a run makes whatever --seconds says, so a median
// exists even on a slow host.
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string trace_out;
  bool write_expected = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --expected FILE [--trace-out FILE] "
               "[--write-expected]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-expected") {
      args.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.expected.empty()) usage("--expected is required");
  return args;
}

// Expected fingerprints: one "job fingerprint" line per job.
std::map<std::string, std::string> read_expected(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = line.substr(space + 1);
  }
  return out;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Unit order of one pass: a Fisher-Yates shuffle seeded by (seed, pass), so
// host drift during a run does not land on one mechanism.
std::vector<std::size_t> pass_order(std::size_t units, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(units);
  for (std::size_t i = 0; i < units; ++i) order[i] = i;
  std::uint64_t state = seed * 0x100000001B3ULL + pass;
  for (std::size_t i = units; i > 1; --i) {
    std::swap(order[i - 1], order[splitmix64(state) % i]);
  }
  return order;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// One pass's host-side totals.
struct PassTotals {
  double host_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t insns = 0;
  std::map<std::string, double> job_run_s;
  Counters counters;
  double lane_imbalance = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
};

// Least run time of each job over a set of passes. Other load on the host
// only ever slows a job down, and on a shared host it comes in bursts that
// can cover a whole pass or run, so the least of many passes is the steadiest
// estimate of what a job itself costs. In one series of eight 20 s runs of
// `micro` on a shared 4-core host, the spread (IQR / median) of the median
// pass's host time was 18%; that of the summed per-job minima was 5%.
class JobMinima {
 public:
  void add(const PassTotals& pass) {
    for (const auto& [job, seconds] : pass.job_run_s) {
      const auto [it, fresh] = least_.try_emplace(job, seconds);
      if (!fresh) it->second = std::min(it->second, seconds);
    }
  }
  // Sum over the jobs `keep` accepts (all by default).
  [[nodiscard]] double sum(
      const std::function<bool(const std::string&)>& keep = nullptr) const {
    double total = 0.0;
    for (const auto& [job, seconds] : least_) {
      if (!keep || keep(job)) total += seconds;
    }
    return total;
  }

 private:
  std::map<std::string, double> least_;
};

class Runner {
 public:
  Runner(std::vector<Unit> units, std::map<std::string, std::string> expected)
      : units_(std::move(units)), expected_(std::move(expected)) {}

  // Runs every job once on `seed`. With `check_expected`, each fingerprint
  // must equal the committed one; otherwise it must equal the one the same
  // job gave on the first pass of this run (traced passes included).
  PassTotals pass(std::uint64_t seed, std::uint64_t index, bool check_expected) {
    PassTotals totals;
    for (std::size_t u : pass_order(units_.size(), seed, index)) {
      for (const Job& job : units_[u]) {
        const JobOutcome out = job.run(seed);
        ++totals.jobs;
        std::string error = out.error;
        if (error.empty()) error = check(job, out, check_expected);
        if (!error.empty()) {
          ++totals.failed;
          std::fprintf(stderr, "hostbench: job %s failed: %s\n",
                       job.name.c_str(), error.c_str());
        }
        totals.host_s += out.run_s;
        totals.setup_s += out.setup_s;
        totals.insns += out.fingerprint.insns;
        totals.job_run_s[job.name] = out.run_s;
        for (const auto& [name, value] : out.counters) {
          totals.counters[name] += value;
        }
        totals.counters["kernel.steps"] += out.fingerprint.steps;
        totals.counters["kernel.insns_retired"] += out.fingerprint.insns;
        totals.counters["kernel.sim_cycles"] += out.fingerprint.cycles;
        totals.lane_imbalance = std::max(totals.lane_imbalance, out.lane_imbalance);
        if (index == 0) reference_[job.name] = out.fingerprint;
      }
    }
    return totals;
  }

  [[nodiscard]] const std::map<std::string, Fingerprint>& reference() const {
    return reference_;
  }
  [[nodiscard]] const std::vector<Unit>& units() const { return units_; }

 private:
  struct Seen {
    Fingerprint fingerprint;
    Counters counters;
    double lane_imbalance = 0.0;
  };

  std::string check(const Job& job, const JobOutcome& out, bool check_expected) {
    if (check_expected) {
      const auto it = expected_.find(job.name);
      if (it == expected_.end()) return "no expected fingerprint";
      if (it->second != out.fingerprint.to_string()) {
        return "fingerprint " + out.fingerprint.to_string() + ", expected " +
               it->second;
      }
      return "";
    }
    const auto [it, first] = seen_.try_emplace(
        job.name, Seen{out.fingerprint, out.counters, out.lane_imbalance});
    if (first) return "";
    if (it->second.fingerprint != out.fingerprint) {
      return "fingerprint " + out.fingerprint.to_string() +
             " differs from this run's first pass " +
             it->second.fingerprint.to_string();
    }
    if (it->second.counters != out.counters ||
        it->second.lane_imbalance != out.lane_imbalance) {
      return "engine counters differ from this run's first pass";
    }
    return "";
  }

  std::vector<Unit> units_;
  std::map<std::string, std::string> expected_;
  std::map<std::string, Seen> seen_;
  std::map<std::string, Fingerprint> reference_;
};

// Table II accuracy row (read-only, not a gated metric): each mechanism's
// simulated overhead on the reference pass beside the paper's value.
void print_accuracy(const Runner& runner) {
  const Fingerprint* native = nullptr;
  for (const Unit& unit : runner.units()) {
    for (const Job& job : unit) {
      if (job.mech == "native") native = &runner.reference().at(job.name);
    }
  }
  if (native == nullptr || native->cycles == 0) return;
  std::printf("Table II accuracy (simulated cycles / native, default seed):\n");
  for (const Unit& unit : runner.units()) {
    for (const Job& job : unit) {
      const double overhead =
          static_cast<double>(runner.reference().at(job.name).cycles) /
          static_cast<double>(native->cycles);
      if (job.table2_name.empty()) {
        std::printf("  %-31s %7.2fx   paper: -\n", job.name.c_str(), overhead);
      } else {
        std::printf("  %-31s %7.2fx   paper %-26s %6.2fx   error %+6.1f%%\n",
                    job.name.c_str(), overhead, job.table2_name.c_str(),
                    job.table2_paper,
                    100.0 * (overhead - job.table2_paper) / job.table2_paper);
      }
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.12g", value);
    out_ << (first_ ? "" : ", ") << "\"" << name << "\": {\"value\": " << number
         << ", \"unit\": \"" << unit << "\"}";
    first_ = false;
  }
  [[nodiscard]] std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

const char* const kMechFamilies[] = {"native", "ptrace", "seccomp",
                                     "sud", "zpoline", "lazypoline"};
const char* const kCounters[] = {
    "cpu.block_lookups",   "cpu.blocks_built",        "cpu.block_invalidations",
    "cpu.ref_steps",       "bpf.insns_executed",      "policy.transitions_checked",
    "core.slow_path_hits", "core.fast_path_hits",     "zpoline.sites_rewritten",
    "smp.barriers",        "smp.steals",              "smp.shootdowns",
    "kernel.steps",        "kernel.insns_retired",    "kernel.sim_cycles"};
// Span name -> per-layer metric of its self time, taken as the least per-pass
// total over the traced passes (the reason JobMinima gives).
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"kernel.run", "kernel.engine_s"},
    {"interpose.handler", "interpose.handler_s"},
    {"kernel.syscall", "kernel.syscall_s"},
    {"replay.recorder", "replay.recorder_s"},
    {"replay.replayer", "replay.replayer_s"},
    {"policy.enforcer", "policy.enforcer_s"},
    {"apps.build", "apps.build_s"},
    {"kernel.load", "kernel.load_s"},
    {"mechanisms.install", "mechanisms.install_s"},
    {"policy.extract", "policy.extract_s"},
    {"policy.compile", "policy.compile_s"}};

int run(const Args& args) {
  std::vector<Unit> units = make_workload(args.workload);
  if (units.empty()) usage("unknown workload '" + args.workload + "'");
  Runner runner(std::move(units), read_expected(args.expected));

  // Reference pass: default seed, checked against the committed
  // fingerprints. It also warms the host caches and allocator.
  const PassTotals reference = runner.pass(kDefaultSeed, 0, !args.write_expected);
  if (args.write_expected) {
    std::ofstream out(args.expected);
    out << "# hostbench expected fingerprints, workload " << args.workload
        << ", seed " << kDefaultSeed << " (regenerate only when a change is\n"
        << "# meant to move simulated results: hostbench --write-expected)\n";
    for (const auto& [name, fp] : runner.reference()) {
      out << name << " " << fp.to_string() << "\n";
    }
    std::printf("wrote %zu fingerprints to %s\n", runner.reference().size(),
                args.expected.c_str());
    return reference.failed == 0 && out ? 0 : 1;
  }
  if (args.workload == "micro") print_accuracy(runner);

  std::uint64_t attempted = reference.jobs;
  std::uint64_t failed = reference.failed;
  std::vector<PassTotals> plain;
  std::vector<PassTotals> traced;
  JobMinima plain_minima;
  JobMinima traced_minima;
  std::map<std::string, std::vector<double>> span_s;
  std::map<std::string, std::uint64_t> span_count;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t index = 1;; ++index) {
    const bool enough_time = seconds_between(start, Clock::now()) >= args.seconds;
    const bool enough_passes =
        static_cast<int>(plain.size()) >= kMinPasses &&
        (!args.trace || static_cast<int>(traced.size()) >= kMinPasses);
    if (enough_time && enough_passes) break;
    // Traced runs alternate untraced and traced passes.
    const bool trace_this = args.trace && index % 2 == 0;
    if (trace_this) {
      clear_kept_spans();
      set_tracing(true);
    }
    PassTotals totals = runner.pass(args.seed, index, false);
    attempted += totals.jobs;
    failed += totals.failed;
    if (trace_this) {
      set_tracing(false);
      for (const auto& [name, total] : take_span_totals()) {
        span_s[name].push_back(total.self_s);
        span_count[name] = total.count;
      }
      traced_minima.add(totals);
      traced.push_back(std::move(totals));
    } else {
      plain_minima.add(totals);
      plain.push_back(std::move(totals));
    }
  }

  std::vector<double> pass_s;
  std::vector<double> pass_setup_s;
  for (const PassTotals& p : plain) {
    pass_s.push_back(p.host_s);
    pass_setup_s.push_back(p.setup_s);
  }
  const double host_s = plain_minima.sum();
  std::printf("%s: %zu untraced + %zu traced passes of %zu jobs, seed %llu, "
              "%llu of %llu jobs failed\n",
              args.workload.c_str(), plain.size(), traced.size(),
              static_cast<std::size_t>(reference.jobs),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::sort(pass_s.begin(), pass_s.end());
  std::printf("host seconds per untraced pass: min %.4f median %.4f max %.4f "
              "(%zu passes); sum of per-job minima %.4f\n",
              pass_s.front(), median(pass_s), pass_s.back(), pass_s.size(),
              host_s);

  JsonMetrics metrics;
  if (!args.trace) {
    metrics.add("host_s", host_s, "s");
    metrics.add("sim_mips",
                static_cast<double>(plain.front().insns) / host_s / 1e6,
                "Minsn/s");
    metrics.add("setup_s", median(pass_setup_s), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // A copy, so operator[] reads 0 for a counter no job of the workload sets.
    Counters counters = traced.front().counters;
    for (const auto& [span, metric] : kSpanMetrics) {
      const auto it = span_s.find(span);
      metrics.add(metric,
                  it == span_s.end()
                      ? 0.0
                      : *std::min_element(it->second.begin(), it->second.end()),
                  "s");
    }
    metrics.add("interpose.calls",
                static_cast<double>(span_count["interpose.handler"]), "count");
    for (const char* name : kCounters) {
      metrics.add(name, static_cast<double>(counters[name]), "count");
    }
    const double steps = static_cast<double>(counters["kernel.steps"]);
    metrics.add("cpu.ref_step_share",
                steps == 0.0 ? 0.0
                             : static_cast<double>(counters["cpu.ref_steps"]) / steps,
                "ratio");
    metrics.add("smp.lane_imbalance", traced.front().lane_imbalance, "ratio");
    std::map<std::string, std::string> family_of;
    for (const Unit& unit : runner.units()) {
      for (const Job& job : unit) family_of[job.name] = job.mech;
    }
    for (const char* family : kMechFamilies) {
      metrics.add(std::string("mech.") + family + ".run_s",
                  plain_minima.sum([&](const std::string& job) {
                    return family_of[job] == family;
                  }),
                  "s");
    }
    metrics.add("trace.overhead_x", traced_minima.sum() / host_s, "ratio");
    if (!args.trace_out.empty()) {
      if (!write_kept_spans(args.trace_out)) {
        std::fprintf(stderr, "hostbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("spans of the last traced pass -> %s (%llu not kept)\n",
                  args.trace_out.c_str(),
                  static_cast<unsigned long long>(dropped_spans()));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  return hostbench::run(hostbench::parse(argc, argv));
}
