// The four benchmark workloads (README.md in this directory) and what each
// run hands back to main().
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/calibrate.h"
#include "perfbench/summary.h"
#include "perfbench/trace.h"

namespace perfbench {

// Load comes from one process with at most this many concurrent threads or
// worker processes.
inline constexpr unsigned kWorkers = 4;

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // per-run directory for files; removed by main
};

// What one run measured. `checks` counts output checks (attempted) and the
// ones that failed; e2e/layer hold every metric the workload measures by
// its catalog name (metrics.h); main() fills the rest with 0 (layers)
// and refuses a run that leaves an end-to-end metric unset.
struct RunResult {
  uint64_t operations = 0;  // operations attempted (jobs, campaigns, trials)
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  // context lines printed before the result
  Tracer* tracer = nullptr;        // set by main when --trace 1

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++check_failures;
      notes.push_back("CHECK FAILED: " + what);
    }
  }
};

// Shared end-to-end bookkeeping: every workload is a closed loop of
// operations, each with a size (its unit of work), a wall latency, and a
// CPU time that the calibrator converts into reference seconds
// (calibrate.h).
struct OpLog {
  explicit OpLog(RefKernel kernel) : calibrator(kernel, kWorkers) {}

  Calibrator calibrator;
  std::vector<double> rates;      // work units per wall second, per operation
  std::vector<double> cpu_rates;  // work units per CPU second, per operation
  std::vector<double> ref_rates;  // work units per reference second, per operation
  std::vector<double> scales;     // reference seconds per CPU second, per operation
  std::vector<double> latencies;  // wall seconds, per operation
  uint64_t attempted = 0;         // operations attempted
  uint64_t succeeded = 0;         // operations that reached their goal

  // Records one operation of `work` units timed by `watch`, then runs the
  // reference loop; returns the operation's wall seconds.
  double Record(double work, const Stopwatch& watch) {
    const double cpu_s = watch.cpu_s();
    const double wall_s = watch.wall_s();
    rates.push_back(work / wall_s);
    cpu_rates.push_back(work / cpu_s);
    scales.push_back(calibrator.Scale());
    ref_rates.push_back(work / (cpu_s * scales.back()));
    latencies.push_back(wall_s);
    return wall_s;
  }

  void Fill(RunResult& result, double setup_s) const;
};

// Median reference seconds of `reps` runs of `fn`. Set-up is repeated and
// summarised like every other timing, and like the operations it is timed
// in CPU seconds converted by `calibrator`, so that other load on the
// machine does not move it.
template <typename Fn>
double MedianRefSeconds(int reps, Calibrator& calibrator, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch watch;
    fn(r);
    const double cpu_s = watch.cpu_s();
    times.push_back(cpu_s * calibrator.Scale());
  }
  return Median(times);
}

// Peak resident set of this process and its reaped children, in MiB.
double PeakRssMb();

// Bytes in the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

void RunGenSingleByte(const RunConfig& config, RunResult& result);
void RunLongTermDigraph(const RunConfig& config, RunResult& result);
void RunCampaignDigraph(const RunConfig& config, RunResult& result);
void RunAttackMix(const RunConfig& config, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
