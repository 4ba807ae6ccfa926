// rc4b_perfbench: runs one benchmark workload for a fixed time and prints its
// metrics as one JSON line (README.md in this directory).
//
//   rc4b_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --scratch-dir <dir> [--git-rev <rev>]
//
// The seed is the only source of the workload's inputs. Environment
// variables that would change what the program computes or how it
// dispatches (fault injection, forced kernel, autotune cache) are refused.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/metrics.h"
#include "perfbench/workloads.h"
#include "src/rc4/kernel_registry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void OpLog::Fill(RunResult& result, double setup_s) const {
  result.operations = attempted;
  result.e2e["work_per_ref_s"] = Median(ref_rates);
  result.e2e["success_share"] =
      1.0 - FailedShare(attempted - succeeded, attempted);
  result.e2e["setup_s"] = setup_s;
  const double tail_pct = HighestSupportedPercentile(latencies.size());
  result.layer["op.count"] = static_cast<double>(latencies.size());
  result.layer["op.latency_p50_s"] = Median(latencies);
  result.layer["op.latency_tail_pct"] = tail_pct;
  result.layer["op.latency_tail_s"] =
      tail_pct > 0 ? Percentile(latencies, tail_pct) : 0.0;
  result.layer["op.work_per_s"] = Median(rates);
  result.layer["op.work_per_cpu_s"] = Median(cpu_rates);
  result.layer["op.ref_scale"] = Median(scales);
  for (const auto& [what, values] :
       {std::pair{"reference", &ref_rates}, std::pair{"CPU", &cpu_rates},
        std::pair{"wall", &rates}}) {
    if (values->size() < 2) {
      continue;
    }
    const auto [q1, q3] = Quartiles(*values);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "%zu operations, work per %s second median %.6g, quartiles "
                  "%.6g .. %.6g (in-run spread %.4f)",
                  values->size(), what, Median(*values), q1, q3,
                  (q3 - q1) / Median(*values));
    result.notes.push_back(note);
  }
}

double PeakRssMb() {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string scratch_dir;
  std::string git_rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--scratch-dir") {
      args->scratch_dir = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0 && !args->scratch_dir.empty();
}

using Workload = void (*)(const RunConfig&, RunResult&);

Workload FindWorkload(const std::string& name) {
  if (name == "gen-singlebyte") return RunGenSingleByte;
  if (name == "campaign-digraph") return RunCampaignDigraph;
  if (name == "longterm-digraph") return RunLongTermDigraph;
  if (name == "attack-mix") return RunAttackMix;
  return nullptr;
}

}  // namespace

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rc4b_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch-dir <dir> "
                 "[--git-rev <rev>]\n");
    return 2;
  }
  for (const char* var : {"RC4B_FAULTS", "RC4B_KERNEL", "RC4B_AUTOTUNE_CACHE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "refusing to run: %s is set and would change what the "
                   "program computes or how it dispatches; unset it\n",
                   var);
      return 2;
    }
  }
  const Workload workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // glibc raises its mmap threshold each time a large block is freed, so
  // whether a later large block is served from the heap (and stays resident
  // after free) would depend on the order of frees across threads. Pinning
  // the threshold at glibc's default keeps every large block mmap-backed,
  // so peak_rss_mb tracks peak live memory instead of that order.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // Per-run directory for every file the workload writes; removed at exit.
  std::filesystem::create_directories(args.scratch_dir);
  std::string dir_template = args.scratch_dir + "/run-XXXXXX";
  if (::mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.trace = args.trace == 1;
  config.scratch_dir = dir_template;

  Tracer tracer;
  RunResult result;
  result.tracer = config.trace ? &tracer : nullptr;
  try {
    workload(config, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", args.workload.c_str(), e.what());
    std::filesystem::remove_all(config.scratch_dir);
    return 1;
  }
  const uint64_t scratch_bytes = DirectoryBytes(config.scratch_dir);
  std::filesystem::remove_all(config.scratch_dir);
  result.e2e["peak_rss_mb"] = PeakRssMb();

  const rc4b::KernelChoice choice = rc4b::ResolveKernelChoice("", 0);
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"kernel\": \"%s\", \"width\": %zu, \"cpu\": \"%s\", "
      "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_rev\": \"%s\", \"scratch_bytes\": %llu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, std::string(choice.name()).c_str(), choice.width,
      rc4b::CpuFeatureString().c_str(), std::thread::hardware_concurrency(),
      __VERSION__, PERFBENCH_BUILD_TYPE, args.git_rev.c_str(),
      static_cast<unsigned long long>(scratch_bytes));
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (config.trace) {
    result.layer["trace.spans"] = static_cast<double>(tracer.Spans().size());
    const std::string trace_path = args.scratch_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".jsonl";
    if (tracer.WriteJsonLines(trace_path)) {
      std::printf("# spans written to %s\n", trace_path.c_str());
    }
  }

  std::string line;
  const bool ok =
      config.trace
          ? FormatResult(result.check_failures == 0, result.operations + result.checks,
                         result.check_failures, kPerLayer, result.layer, false,
                         &line)
          : FormatResult(result.check_failures == 0, result.operations + result.checks,
                         result.check_failures, kEndToEnd, result.e2e, true,
                         &line);
  if (!ok) {
    std::fprintf(stderr, "metric %s was not measured or is not finite\n",
                 line.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.check_failures == 0 ? 0 : 1;
}
