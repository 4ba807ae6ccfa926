// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (nothing under src/ is instrumented). They stay in memory
// until the run ends; Aggregate() then folds them per name into busy time
// (sum of durations) and self time (duration minus the union of direct
// children, summary.h), and WriteJsonLines() dumps them for inspection.
//
// A null Tracer* means tracing is off: ScopedSpan then reads no clock and
// records nothing, so the untraced run pays one branch per boundary.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/summary.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of this process, all its threads plus its reaped children, in
// ns. Time a thread spends waiting for a CPU is not in it: neither the
// guest scheduler's run-queue wait nor, on a paravirtualised guest, the time
// the hypervisor gave the vCPU to someone else (steal). So unlike wall time
// it holds steady when other work shares the machine.
inline int64_t CpuNs() {
  timespec self{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const auto ns = [](const timeval& t) {
    return int64_t{t.tv_sec} * 1000000000 + int64_t{t.tv_usec} * 1000;
  };
  return int64_t{self.tv_sec} * 1000000000 + self.tv_nsec +
         ns(children.ru_utime) + ns(children.ru_stime);
}

// Wall and CPU clocks read together, from construction on.
class Stopwatch {
 public:
  double wall_s() const { return static_cast<double>(NowNs() - wall0_) * 1e-9; }
  double cpu_s() const { return static_cast<double>(CpuNs() - cpu0_) * 1e-9; }

 private:
  int64_t wall0_ = NowNs();
  int64_t cpu0_ = CpuNs();
};

struct SpanTotals {
  int64_t busy_ns = 0;  // sum of span durations
  int64_t self_ns = 0;  // sum of span self times
  uint64_t count = 0;
  double busy_s() const { return static_cast<double>(busy_ns) * 1e-9; }
  double self_s() const { return static_cast<double>(self_ns) * 1e-9; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  // Span id of the innermost open ScopedSpan on the calling thread.
  static uint32_t& Current() {
    thread_local uint32_t current = SpanRecord::kNoParent;
    return current;
  }

  static uint32_t ThreadTag() {
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffffu);
  }

  std::vector<SpanRecord> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  std::map<std::string, SpanTotals> Aggregate() const {
    const std::vector<SpanRecord> spans = Spans();
    const auto self = SelfTimes(spans);
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord& s : spans) {
      SpanTotals& t = out[s.name];
      t.busy_ns += s.end_ns - s.start_ns;
      t.self_ns += self.at(s.id);
      ++t.count;
    }
    return out;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (const SpanRecord& s : Spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"thread\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, s.id, s.parent, s.thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span. `parent` defaults to the calling thread's innermost open span;
// pass an explicit id to attach work on a pool thread to the span that
// caused it on another thread.
class ScopedSpan {
 public:
  static constexpr uint32_t kInherit = UINT32_MAX;

  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent = kInherit)
      : tracer_(tracer) {
    if (tracer_ == nullptr) {
      return;
    }
    uint32_t& current = Tracer::Current();
    record_.name = name;
    record_.id = tracer_->NextId();
    record_.parent = parent == kInherit ? current : parent;
    record_.thread = Tracer::ThreadTag();
    saved_current_ = current;
    current = record_.id;
    record_.start_ns = NowNs();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) {
      return;
    }
    record_.end_ns = NowNs();
    Tracer::Current() = saved_current_;
    tracer_->Record(record_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
  uint32_t saved_current_ = SpanRecord::kNoParent;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
