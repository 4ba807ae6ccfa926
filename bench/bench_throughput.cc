// Substrate micro-throughput (google-benchmark): the building blocks whose
// speed determined the paper's practical rates (Sect. 5.4: ~2500 injected
// packets/s; Sect. 6.3: ~4450 HTTPS requests/s, 20000 cookie tests/s).
// Alongside the console table the binary writes BENCH_throughput.json
// (bench/harness.h) so the nightly perf job tracks every micro-number.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "src/biases/fluhrer_mcgrew.h"
#include "src/common/rng.h"
#include "src/core/candidates.h"
#include "src/core/likelihood.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/crypto/aes128.h"
#include "src/crypto/crc32.h"
#include "src/crypto/hmac.h"
#include "src/crypto/michael.h"
#include "src/crypto/sha1.h"
#include "src/rc4/kernel.h"
#include "src/rc4/kernel_registry.h"
#include "src/rc4/rc4.h"
#include "src/rc4/rc4_multi.h"
#include "src/tkip/frame.h"
#include "src/tkip/key_mixing.h"
#include "src/tls/record.h"

namespace rc4b {
namespace {

Bytes RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  rng.Fill(out);
  return out;
}

void BM_Rc4Ksa(benchmark::State& state) {
  const Bytes key = RandomBytes(16, 1);
  for (auto _ : state) {
    Rc4 rc4(key);
    benchmark::DoNotOptimize(rc4);
  }
}
BENCHMARK(BM_Rc4Ksa);

void BM_Rc4Keystream(benchmark::State& state) {
  const Bytes key = RandomBytes(16, 2);
  Rc4 rc4(key);
  Bytes buffer(state.range(0));
  for (auto _ : state) {
    rc4.Keystream(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Rc4Keystream)->Arg(256)->Arg(4096);

// Interleaved kernel KSA: M lockstep key schedules per iteration. The
// per-key rate versus BM_Rc4Ksa is the KSA half of the engine's short-term
// speedup (256 swaps per key dominate 16-byte first16-style datasets).
template <size_t M>
void BM_Rc4MultiKsa(benchmark::State& state) {
  const Bytes keys = RandomBytes(M * 16, 21);
  for (auto _ : state) {
    Rc4MultiStream<M> streams(keys, 16);
    benchmark::DoNotOptimize(streams);
  }
  state.SetItemsProcessed(state.iterations() * M);
}
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 4);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 8);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 16);
BENCHMARK_TEMPLATE(BM_Rc4MultiKsa, 32);

// Interleaved kernel PRGA: bytes/sec across all M streams (row stride =
// keystream length, as in the engine's batch buffer). Compare against
// BM_Rc4Keystream at the same length for the per-core PRGA speedup; this is
// also the sweep that tunes kDefaultInterleave.
template <size_t M>
void BM_Rc4MultiKeystream(benchmark::State& state) {
  const Bytes keys = RandomBytes(M * 16, 22);
  Rc4MultiStream<M> streams(keys, 16);
  const size_t length = static_cast<size_t>(state.range(0));
  Bytes buffer(M * length);
  for (auto _ : state) {
    streams.Keystream(buffer.data(), length, length);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(M * length));
}
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 4)->Arg(256);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 8)->Arg(256)->Arg(4096);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 16)->Arg(256);
BENCHMARK_TEMPLATE(BM_Rc4MultiKeystream, 32)->Arg(256);

// Registered lane kernels (scalar round-robin, ssse3/avx2/neon where the
// build + CPU allow), each at its preferred width — the heads-up comparison
// behind tools/autotune's verdict. Registered at runtime in main() because
// availability is a host property, not a compile-time one.
void BM_LaneKernelKsa(benchmark::State& state, const KernelDesc* desc) {
  const size_t width = desc->preferred_width;
  const auto kernel = desc->make(width);
  const Bytes keys = RandomBytes(width * 16, 23);
  for (auto _ : state) {
    kernel->Init(keys, 16);
    benchmark::DoNotOptimize(kernel.get());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(width));
}

void BM_LaneKernelKeystream(benchmark::State& state, const KernelDesc* desc) {
  const size_t width = desc->preferred_width;
  const auto kernel = desc->make(width);
  const Bytes keys = RandomBytes(width * 16, 24);
  kernel->Init(keys, 16);
  const size_t length = static_cast<size_t>(state.range(0));
  Bytes buffer(width * length);
  for (auto _ : state) {
    kernel->Keystream(buffer.data(), length, length);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(width * length));
}

void RegisterLaneKernelBenchmarks() {
  for (const KernelDesc& desc : KernelRegistry()) {
    if (!desc.Available()) {
      continue;
    }
    const std::string name(desc.name);
    benchmark::RegisterBenchmark(("BM_LaneKernelKsa/" + name).c_str(),
                                 BM_LaneKernelKsa, &desc);
    benchmark::RegisterBenchmark(("BM_LaneKernelKeystream/" + name).c_str(),
                                 BM_LaneKernelKeystream, &desc)
        ->Arg(256)
        ->Arg(4096);
  }
}

void BM_AesCtr(benchmark::State& state) {
  Aes128Ctr ctr(RandomBytes(16, 3));
  Bytes buffer(4096);
  for (auto _ : state) {
    ctr.Generate(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AesCtr);

// One 16-byte Generate() per iteration: the per-key pattern of
// Rc4KeyGenerator::NextKey, where single-block latency rather than the
// pipelined bulk rate of BM_AesCtr sets the cost.
void BM_AesCtrKeys(benchmark::State& state) {
  Aes128Ctr ctr(RandomBytes(16, 3));
  Bytes key(16);
  for (auto _ : state) {
    ctr.Generate(key);
    benchmark::DoNotOptimize(key.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesCtrKeys);

void BM_Sha1(benchmark::State& state) {
  const Bytes data = RandomBytes(512, 4);
  for (auto _ : state) {
    auto digest = Sha1::Digest(data);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Sha1);

void BM_HmacSha1(benchmark::State& state) {
  const Bytes key = RandomBytes(20, 5);
  const Bytes data = RandomBytes(512, 6);
  for (auto _ : state) {
    auto mac = HmacSha1::Digest(key, data);
    benchmark::DoNotOptimize(mac.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_HmacSha1);

// 1500 B is a frame's ICV input; 8 MiB is the cells section of a 16-row
// digraph grid, the grid store's section checksum.
void BM_Crc32(benchmark::State& state) {
  const Bytes data = RandomBytes(static_cast<size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1500)->Arg(8 << 20);

void BM_MichaelMic(benchmark::State& state) {
  const MichaelKey key{0x12345678, 0x9abcdef0};
  const Bytes data = RandomBytes(64, 8);
  for (auto _ : state) {
    auto mic = MichaelMic(key, data);
    benchmark::DoNotOptimize(mic.data());
  }
}
BENCHMARK(BM_MichaelMic);

void BM_MichaelKeyRecovery(benchmark::State& state) {
  const MichaelKey key{0x12345678, 0x9abcdef0};
  const Bytes data = RandomBytes(64, 9);
  const auto mic = MichaelMic(key, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MichaelRecoverKey(data, mic));
  }
}
BENCHMARK(BM_MichaelKeyRecovery);

void BM_TkipKeyMixing(benchmark::State& state) {
  const Bytes tk = RandomBytes(16, 10);
  const Bytes ta = RandomBytes(6, 11);
  uint64_t tsc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TkipMixKey(tk, ta, ++tsc));
  }
}
BENCHMARK(BM_TkipKeyMixing);

// One full injected-packet encryption: the victim-side cost bounding the
// paper's ~2500 packets/s live rate.
void BM_TkipEncapsulate(benchmark::State& state) {
  Xoshiro256 rng(12);
  TkipPeer peer;
  rng.Fill(peer.tk);
  peer.mic_key = MichaelKey{1, 2};
  rng.Fill(peer.ta);
  rng.Fill(peer.da);
  rng.Fill(peer.sa);
  const Bytes msdu = RandomBytes(55, 13);
  uint64_t tsc = 0;
  for (auto _ : state) {
    auto frame = TkipEncapsulate(peer, msdu, ++tsc);
    benchmark::DoNotOptimize(frame.ciphertext.data());
  }
}
BENCHMARK(BM_TkipEncapsulate);

// One 492-byte HTTPS request: the victim-side cost bounding ~4450 requests/s.
void BM_TlsSealRequest(benchmark::State& state) {
  const Bytes mac_key = RandomBytes(20, 14);
  const Bytes rc4_key = RandomBytes(16, 15);
  TlsWriteState writer(mac_key, rc4_key);
  const Bytes payload = RandomBytes(492, 16);
  for (auto _ : state) {
    auto record = writer.Seal(payload);
    benchmark::DoNotOptimize(record.data());
  }
  state.SetBytesProcessed(state.iterations() * 492);
}
BENCHMARK(BM_TlsSealRequest);

// Sparse double-byte likelihood over the FM cells: the per-pair cost of the
// TLS attack's estimate (paper: ~2^19 operations instead of 2^32).
void BM_SparseDoubleByteLikelihood(benchmark::State& state) {
  const auto model = FmSparseModel(17, 1 << 20);
  Xoshiro256 rng(17);
  std::vector<uint64_t> counts(65536);
  for (auto& c : counts) {
    c = rng() & 0xff;
  }
  for (auto _ : state) {
    auto lambda = DoubleByteLogLikelihoodSparse(counts, 1 << 24, model);
    benchmark::DoNotOptimize(lambda.data());
  }
}
BENCHMARK(BM_SparseDoubleByteLikelihood);

// Sharded keystream-statistics engine: the dataset hot path under every
// attack scenario. Args are {shard count (0 = all cores), interleave
// (1 = scalar, 0 = auto)}; items/sec is keystreams/sec.
// bench_engine_sharded reports the full scalar-vs-interleaved sweep.
void BM_EngineSingleByteStats(benchmark::State& state) {
  EngineOptions options;
  options.keys = 1 << 14;
  options.workers = static_cast<unsigned>(state.range(0));
  options.interleave = static_cast<size_t>(state.range(1));
  options.seed = 19;
  for (auto _ : state) {
    SingleByteAccumulator accumulator(256);
    RunKeystreamEngine(options, accumulator);
    benchmark::DoNotOptimize(accumulator.grid().keys());
  }
  state.SetItemsProcessed(state.iterations() * options.keys);
}
BENCHMARK(BM_EngineSingleByteStats)->Args({1, 1})->Args({1, 0})->Args({0, 0});

void BM_EngineDigraphStats(benchmark::State& state) {
  EngineOptions options;
  options.keys = 1 << 14;
  options.workers = static_cast<unsigned>(state.range(0));
  options.interleave = static_cast<size_t>(state.range(1));
  options.seed = 20;
  for (auto _ : state) {
    ConsecutiveAccumulator accumulator(256);
    RunKeystreamEngine(options, accumulator);
    benchmark::DoNotOptimize(accumulator.grid().keys());
  }
  state.SetItemsProcessed(state.iterations() * options.keys);
}
BENCHMARK(BM_EngineDigraphStats)->Args({1, 1})->Args({1, 0})->Args({0, 0});

// Long-term digraph accumulation (Table 1): 64 keys x 256 KiB per call on
// one worker, one lockstep group at the widest lane width, at the window
// size given by the argument. The grid persists across iterations.
void BM_EngineLongTermDigraphStats(benchmark::State& state) {
  LongTermEngineOptions options;
  options.keys = 64;
  options.bytes_per_key = uint64_t{1} << 18;
  options.workers = 1;
  options.seed = 21;
  options.chunk_bytes = static_cast<size_t>(state.range(0));
  LongTermDigraphAccumulator accumulator;
  for (auto _ : state) {
    RunLongTermEngine(options, accumulator);
    options.first_key += options.keys;
  }
  benchmark::DoNotOptimize(accumulator.grid().keys());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(options.keys * options.bytes_per_key));
}
BENCHMARK(BM_EngineLongTermDigraphStats)->Arg(1 << 16)->Arg(1 << 18);

// Candidate generation throughput (paper: 20000 cookies tested per second,
// dominated by candidate generation + HTTP pipelining).
void BM_LazyCandidateEnumeration(benchmark::State& state) {
  Xoshiro256 rng(18);
  SingleByteTables tables(12, std::vector<double>(256));
  for (auto& table : tables) {
    for (auto& v : table) {
      v = -rng.UnitDouble();
    }
  }
  LazyCandidateEnumerator enumerator(tables);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Next());
  }
}
BENCHMARK(BM_LazyCandidateEnumeration);

// Console output as usual, while collecting every run into
// BENCH_throughput.json: per benchmark the real ns/iter plus the rate
// counters (items_per_second / bytes_per_second) google-benchmark computed.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TrajectoryReporter(bench::JsonTrajectory& json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      const std::string name = run.benchmark_name();
      json_.Add(name + "/real_ns", run.GetAdjustedRealTime());
      for (const auto& [counter, value] : run.counters) {
        json_.Add(name + "/" + counter, static_cast<double>(value));
      }
    }
    ConsoleReporter::ReportRuns(report);
  }

 private:
  bench::JsonTrajectory& json_;
};

}  // namespace
}  // namespace rc4b

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  rc4b::RegisterLaneKernelBenchmarks();
  rc4b::bench::JsonTrajectory json("throughput");
  json.Add("cpu_features", rc4b::CpuFeatureString());
  rc4b::TrajectoryReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  json.Write();
  return 0;
}
