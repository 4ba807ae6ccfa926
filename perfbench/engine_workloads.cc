// gen-singlebyte and longterm-digraph: the keystream engine on its two
// generation paths, each a closed loop of engine calls over consecutive key
// ranges of one seeded AES-CTR stream, accumulating into one grid kept in
// memory.
#include <memory>
#include <numeric>

#include "perfbench/engine_replay.h"
#include "perfbench/workloads.h"
#include "src/engine/accumulators.h"
#include "src/engine/keystream_engine.h"
#include "src/sim/runner.h"

namespace perfbench {

namespace {

// gen-singlebyte: Fig. 6-style first-256-byte single-byte statistics.
constexpr size_t kSingleBytePositions = 256;
constexpr uint64_t kSingleByteJobKeys = uint64_t{1} << 16;
constexpr uint64_t kSingleByteWarmKeys = kSingleByteJobKeys;

// longterm-digraph: Table 1 long-term digraphs. 256 keys per call give
// every one of the 4 shards a full lockstep group at the widest lane width
// (64), so the lane kernels run here exactly as in a long-term dataset.
constexpr uint64_t kLongTermJobKeys = 256;
constexpr uint64_t kLongTermBytesPerKey = uint64_t{1} << 18;
constexpr uint64_t kLongTermWarmKeys = 4;
constexpr uint64_t kLongTermWarmBytes = uint64_t{1} << 16;

// Size of the untimed output checks against the scalar oracle. Long-term
// needs kWorkers * 64 keys so the measured configuration engages the lane
// kernel in every shard.
constexpr uint64_t kOracleShortKeys = 4096;
constexpr uint64_t kOracleLongKeys = kWorkers * 64;
constexpr uint64_t kOracleLongBytes = uint64_t{1} << 14;

constexpr int kSetupReps = 5;

uint64_t StreamSeed(uint64_t seed) {
  return rc4b::sim::TrialSeed(seed, 0x67656eULL);  // "gen"
}

rc4b::EngineOptions ShortOptions(uint64_t seed, uint64_t first, uint64_t keys,
                                 unsigned workers) {
  rc4b::EngineOptions o;
  o.keys = keys;
  o.workers = workers;
  o.seed = seed;
  o.first_key = first;
  return o;
}

rc4b::LongTermEngineOptions LongOptions(uint64_t seed, uint64_t first,
                                        uint64_t keys, uint64_t bytes,
                                        unsigned workers) {
  rc4b::LongTermEngineOptions o;
  o.keys = keys;
  o.bytes_per_key = bytes;
  o.workers = workers;
  o.seed = seed;
  o.first_key = first;
  return o;
}

// Every row of a grid sums to the grid's sample count.
template <typename Grid>
bool RowSumsEqual(const Grid& grid, uint64_t expected) {
  for (size_t pos = 0; pos < grid.positions(); ++pos) {
    const auto row = grid.Row(pos);
    if (std::accumulate(row.begin(), row.end(), uint64_t{0}) != expected) {
      return false;
    }
  }
  return grid.keys() == expected;
}

double SecondsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-9; }

// Engine scaling on one fixed problem: 4-worker over 1-worker rate, median
// of three alternating pairs.
template <typename RunOnce>
double Scaling(RunOnce&& run_once) {
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double t4 = run_once(kWorkers);
    const double t1 = run_once(1);
    ratios.push_back(t1 / t4);
  }
  return Median(ratios);
}

}  // namespace

void RunGenSingleByte(const RunConfig& config, RunResult& result) {
  const uint64_t seed = StreamSeed(config.seed);
  std::unique_ptr<rc4b::SingleByteAccumulator> acc;
  OpLog log(RefKernel::kCore);
  const double setup_s = MedianRefSeconds(kSetupReps, log.calibrator, [&](int) {
    acc = std::make_unique<rc4b::SingleByteAccumulator>(kSingleBytePositions);
    rc4b::RunKeystreamEngine(ShortOptions(seed, 0, kSingleByteWarmKeys, kWorkers),
                             *acc);
  });
  uint64_t next_key = kSingleByteWarmKeys;
  // Runs the engine (or its replay) on the next key range; returns wall
  // seconds, and logs the operation when `log_into` is set.
  const auto run_job = [&](rc4b::BiasAccumulator& into, bool replay,
                           ReplayWork* work, OpLog* log_into) {
    const auto options = ShortOptions(seed, next_key, kSingleByteJobKeys, kWorkers);
    const Stopwatch watch;
    if (replay) {
      ReplayKeystreamEngine(options, into, *result.tracer, *work);
    } else {
      rc4b::RunKeystreamEngine(options, into);
    }
    return log_into != nullptr ? log_into->Record(kSingleByteJobKeys, watch)
                               : watch.wall_s();
  };

  if (!config.trace) {
    const int64_t start = NowNs();
    while (SecondsSince(start) < config.seconds) {
      run_job(*acc, false, nullptr, &log);
      next_key += kSingleByteJobKeys;
      ++log.attempted;
      ++log.succeeded;
    }
    const bool rows_ok = RowSumsEqual(acc->grid(), next_key);
    result.Check(rows_ok, "gen-singlebyte: row sums != keys sampled");
    if (!rows_ok) {
      log.succeeded = 0;
    }
  } else {
    // Engine and replay alternate over the same key ranges; their grids
    // must end byte-identical, and their rate ratio is the tracing overhead.
    rc4b::SingleByteAccumulator engine_acc(kSingleBytePositions);
    rc4b::SingleByteAccumulator replay_acc(kSingleBytePositions);
    ReplayWork work;
    std::vector<double> replay_rates;
    const int64_t start = NowNs();
    while (SecondsSince(start) < config.seconds) {
      run_job(engine_acc, false, nullptr, &log);
      replay_rates.push_back(kSingleByteJobKeys /
                             run_job(replay_acc, true, &work, nullptr));
      next_key += kSingleByteJobKeys;
    }
    result.Check(engine_acc.grid() == replay_acc.grid(),
                 "gen-singlebyte: replay grid differs from the engine's");
    const double scaling = Scaling([&](unsigned workers) {
      rc4b::SingleByteAccumulator scratch(kSingleBytePositions);
      const int64_t t0 = NowNs();
      rc4b::RunKeystreamEngine(
          ShortOptions(seed, 0, kSingleByteJobKeys, workers), scratch);
      return SecondsSince(t0);
    });
    // Shard sink: a u16 worker tile plus a u32 spill block per cell.
    const double shard_bytes = kSingleBytePositions * 256.0 * (2 + 4);
    FillEngineLayers(result.tracer->Aggregate(), work, shard_bytes, scaling,
                     result);
    result.layer["trace.overhead_share"] =
        1.0 - Median(replay_rates) / Median(log.rates);
    log.attempted = log.succeeded = log.rates.size();
  }

  // Scalar oracle (width 1, one worker) against the measured configuration
  // on the same small range: byte-identical grids.
  rc4b::SingleByteAccumulator measured(kSingleBytePositions);
  rc4b::RunKeystreamEngine(ShortOptions(seed, 0, kOracleShortKeys, kWorkers),
                           measured);
  rc4b::SingleByteAccumulator oracle(kSingleBytePositions);
  auto scalar = ShortOptions(seed, 0, kOracleShortKeys, 1);
  scalar.interleave = 1;
  scalar.kernel = "scalar";
  rc4b::RunKeystreamEngine(scalar, oracle);
  result.Check(measured.grid() == oracle.grid(),
               "gen-singlebyte: measured configuration differs from the scalar oracle");
  log.Fill(result, setup_s);
}

void RunLongTermDigraph(const RunConfig& config, RunResult& result) {
  const uint64_t seed = StreamSeed(config.seed);
  const double mib_per_job =
      static_cast<double>(kLongTermJobKeys * kLongTermBytesPerKey) / (1 << 20);
  std::unique_ptr<rc4b::LongTermDigraphAccumulator> acc;
  OpLog log(RefKernel::kMemory);
  const double setup_s = MedianRefSeconds(3, log.calibrator, [&](int) {
    acc.reset();
    acc = std::make_unique<rc4b::LongTermDigraphAccumulator>();
    rc4b::RunLongTermEngine(
        LongOptions(seed, 0, kLongTermWarmKeys, kLongTermWarmBytes, kWorkers), *acc);
  });
  uint64_t samples = kLongTermWarmKeys * kLongTermWarmBytes / 256;
  uint64_t next_key = kLongTermWarmKeys;
  // Runs the engine (or its replay) on the next key range; returns wall
  // seconds, and logs the operation when `log_into` is set.
  const auto run_job = [&](rc4b::StreamAccumulator& into, bool replay,
                           ReplayWork* work, OpLog* log_into) {
    const auto options = LongOptions(seed, next_key, kLongTermJobKeys,
                                     kLongTermBytesPerKey, kWorkers);
    const Stopwatch watch;
    if (replay) {
      ReplayLongTermEngine(options, into, *result.tracer, *work);
    } else {
      rc4b::RunLongTermEngine(options, into);
    }
    return log_into != nullptr ? log_into->Record(mib_per_job, watch)
                               : watch.wall_s();
  };

  if (!config.trace) {
    const int64_t start = NowNs();
    while (SecondsSince(start) < config.seconds) {
      run_job(*acc, false, nullptr, &log);
      next_key += kLongTermJobKeys;
      samples += kLongTermJobKeys * kLongTermBytesPerKey / 256;
      ++log.attempted;
      ++log.succeeded;
    }
    const bool rows_ok = RowSumsEqual(acc->grid(), samples);
    result.Check(rows_ok, "longterm-digraph: row sums != digraph samples");
    if (!rows_ok) {
      log.succeeded = 0;
    }
  } else {
    acc.reset();
    auto engine_acc = std::make_unique<rc4b::LongTermDigraphAccumulator>();
    auto replay_acc = std::make_unique<rc4b::LongTermDigraphAccumulator>();
    ReplayWork work;
    std::vector<double> replay_rates;
    const int64_t start = NowNs();
    while (SecondsSince(start) < config.seconds) {
      run_job(*engine_acc, false, nullptr, &log);
      replay_rates.push_back(mib_per_job / run_job(*replay_acc, true, &work, nullptr));
      next_key += kLongTermJobKeys;
    }
    result.Check(engine_acc->grid() == replay_acc->grid(),
                 "longterm-digraph: replay grid differs from the engine's");
    engine_acc.reset();
    replay_acc.reset();
    const double scaling = Scaling([&](unsigned workers) {
      rc4b::LongTermDigraphAccumulator scratch;
      const int64_t t0 = NowNs();
      rc4b::RunLongTermEngine(LongOptions(seed, 0, kLongTermJobKeys,
                                          kLongTermBytesPerKey, workers),
                              scratch);
      return SecondsSince(t0);
    });
    // Shard sink: one u32 cell per (position class, digraph).
    const double shard_bytes = 256.0 * 65536.0 * 4;
    FillEngineLayers(result.tracer->Aggregate(), work, shard_bytes, scaling,
                     result);
    result.layer["trace.overhead_share"] =
        1.0 - Median(replay_rates) / Median(log.rates);
    log.attempted = log.succeeded = log.rates.size();
  }
  acc.reset();

  rc4b::LongTermDigraphAccumulator measured;
  rc4b::RunLongTermEngine(
      LongOptions(seed, 0, kOracleLongKeys, kOracleLongBytes, kWorkers), measured);
  rc4b::LongTermDigraphAccumulator oracle;
  auto scalar = LongOptions(seed, 0, kOracleLongKeys, kOracleLongBytes, 1);
  scalar.interleave = 1;
  scalar.kernel = "scalar";
  rc4b::RunLongTermEngine(scalar, oracle);
  result.Check(measured.grid() == oracle.grid(),
               "longterm-digraph: measured configuration differs from the scalar oracle");
  log.Fill(result, setup_s);
}

}  // namespace perfbench
