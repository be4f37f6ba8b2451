// The benchmark's workloads: batches of simulation jobs, each on a fresh
// kern::Machine. README.md says why each workload was chosen.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

// The simulated result of one job. A change that only makes the simulator
// faster on the host must leave every field identical.
struct Fingerprint {
  std::uint64_t cycles = 0;    // Machine::total_cycles()
  std::uint64_t insns = 0;     // Machine::total_insns() (insns retired)
  std::uint64_t steps = 0;     // Machine::total_steps()
  std::uint64_t requests = 0;  // requests the simulated client got answered
  std::string exits;           // exit code of every loaded task, in load order

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Deterministic counters read from public stats after a job, keyed by their
// per-layer metric name (cpu.blocks_built, core.slow_path_hits, ...).
using Counters = std::map<std::string, std::uint64_t>;

struct JobOutcome {
  Fingerprint fingerprint;
  Counters counters;
  // Host seconds from machine construction up to the first run call, and
  // inside Machine::run / run_smp.
  double setup_s = 0.0;
  double run_s = 0.0;
  // Max over per-CPU steps divided by their mean (SMP jobs only, else 0).
  double lane_imbalance = 0.0;
  // Non-empty when the job failed a check (hang, dropped request, replay
  // divergence, policy violation, profiler mismatch, ...).
  std::string error;
};

struct Job {
  std::string name;  // unique within the workload; keys the expected fingerprint
  std::string mech;  // mechanism family: native ptrace seccomp sud zpoline lazypoline
  // Micro jobs report their simulated overhead against the paper's Table II.
  std::string table2_name;
  double table2_paper = 0.0;
  std::function<JobOutcome(std::uint64_t seed)> run;
};

// Jobs that must run back to back in this order (a replay needs the trace its
// record job made in the same pass). The seed permutes units, not jobs.
using Unit = std::vector<Job>;

// Empty if `name` is not a workload.
[[nodiscard]] std::vector<Unit> make_workload(const std::string& name);

}  // namespace hostbench
