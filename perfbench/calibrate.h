// Reference kernels that measure how fast the host runs right now.
//
// CPU time leaves out the time a thread waits for a CPU, but not the host's
// own drift: on a shared host, other tenants' load moves the clock
// frequency, the sibling hyperthread's share of the core and the memory
// system's bandwidth, and with them the CPU time any fixed work takes, by
// a quarter or more over minutes. The benchmark therefore runs a fixed
// reference loop, on as many threads as the workload uses, next to every
// timed operation, and converts the operation's CPU seconds into reference
// seconds: CPU seconds on a core where the loop runs at its nominal speed.
// The loops are the benchmark's own code, so a change to the program never
// moves them.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

enum class RefKernel {
  // Scalar RC4 PRGA over a 256-byte state: L1-resident, one dependent
  // chain of loads and swaps per byte, so its speed follows the core's
  // clock and its share of the core.
  kCore,
  // xorshift-indexed u32 increments over a 16 MiB table per thread: almost
  // every increment misses the last-level cache, so its speed follows the
  // memory system's.
  kMemory,
};

class Calibrator {
 public:
  Calibrator(RefKernel kernel, unsigned threads) : kernel_(kernel), threads_(threads) {
    if (kernel_ == RefKernel::kMemory) {
      tables_.assign(threads_, std::vector<uint32_t>(kMemoryTableWords, 0));
    }
  }

  // Runs the loop on every thread at once and returns the factor that turns
  // CPU seconds measured now into reference seconds: nominal over measured
  // ns per iteration, the median over the threads.
  double Scale() {
    std::vector<double> ns_per_iter(threads_);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads_; ++t) {
      pool.emplace_back([&, t] {
        const int64_t t0 = ThreadCpuNs();
        const uint64_t iters = kernel_ == RefKernel::kCore ? CoreLoop(t) : MemoryLoop(t);
        ns_per_iter[t] = static_cast<double>(ThreadCpuNs() - t0) / static_cast<double>(iters);
      });
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
    std::sort(ns_per_iter.begin(), ns_per_iter.end());
    const size_t n = ns_per_iter.size();
    const double median = n % 2 == 1 ? ns_per_iter[n / 2]
                                     : (ns_per_iter[n / 2 - 1] + ns_per_iter[n / 2]) / 2;
    const double nominal = kernel_ == RefKernel::kCore ? kCoreNominalNs : kMemoryNominalNs;
    return nominal / median;
  }

 private:
  // Nominal ns per iteration: about what a 2020s Xeon core takes, so that
  // reference seconds stay close to CPU seconds there.
  static constexpr double kCoreNominalNs = 4.0;
  static constexpr double kMemoryNominalNs = 16.0;
  static constexpr uint64_t kCoreIters = uint64_t{1} << 20;
  static constexpr uint64_t kMemoryIters = uint64_t{1} << 18;
  static constexpr size_t kMemoryTableWords = size_t{1} << 22;  // 16 MiB

  static int64_t ThreadCpuNs() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
  }

  uint64_t CoreLoop(unsigned thread) {
    uint8_t s[256];
    for (int i = 0; i < 256; ++i) {
      s[i] = static_cast<uint8_t>(i * 167 + thread);
    }
    uint8_t i = 0;
    uint8_t j = 0;
    uint32_t sum = 0;
    for (uint64_t n = 0; n < kCoreIters; ++n) {
      ++i;
      j = static_cast<uint8_t>(j + s[i]);
      std::swap(s[i], s[j]);
      sum += s[static_cast<uint8_t>(s[i] + s[j])];
    }
    sink_.fetch_add(sum, std::memory_order_relaxed);
    return kCoreIters;
  }

  uint64_t MemoryLoop(unsigned thread) {
    std::vector<uint32_t>& table = tables_[thread];
    uint64_t x = 0x9e3779b97f4a7c15ULL * (thread + 1) + sink_.load(std::memory_order_relaxed);
    for (uint64_t n = 0; n < kMemoryIters; ++n) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      ++table[x & (kMemoryTableWords - 1)];
    }
    return kMemoryIters;
  }

  RefKernel kernel_;
  unsigned threads_;
  std::vector<std::vector<uint32_t>> tables_;
  std::atomic<uint32_t> sink_{0};  // keeps the core loop's result alive
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
