// campaign-digraph: consecutive-digraph grids generated as whole campaigns —
// manifest, CampaignScheduler::Run over forked workers with durable
// checkpoints, MergeShardGrids, and a durable merged grid on disk. Each
// operation is one campaign over a fresh key range.
#include <filesystem>
#include <memory>
#include <numeric>

#include "perfbench/engine_replay.h"
#include "perfbench/workloads.h"
#include "src/engine/accumulators.h"
#include "src/orchestrate/scheduler.h"
#include "src/sim/runner.h"
#include "src/store/grid_file.h"
#include "src/store/manifest.h"
#include "src/store/merge.h"
#include "src/store/shard_runner.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using rc4b::IoStatus;
using rc4b::store::GridMeta;
using rc4b::store::Manifest;
using rc4b::store::StoredGrid;

// 16 digraph rows of 65536 u64 cells: 8 MiB per grid file.
constexpr uint64_t kRows = 16;
constexpr uint32_t kShards = 4;
constexpr uint64_t kShardKeys = uint64_t{1} << 14;
constexpr uint64_t kCampaignKeys = kShards * kShardKeys;
// One checkpoint per shard before its final grid.
constexpr uint64_t kCheckpointKeys = kShardKeys / 2;
// 2 worker processes x 2 in-shard threads = kWorkers.
constexpr uint32_t kParallel = 2;
constexpr unsigned kShardThreads = kWorkers / kParallel;
constexpr uint64_t kWarmKeys = 1024;

uint64_t StreamSeed(uint64_t seed) {
  return rc4b::sim::TrialSeed(seed, 0x63616d70ULL);  // "camp"
}

struct Campaign {
  std::string dir;
  std::string manifest_path;
  Manifest manifest;
};

Campaign PlanCampaign(const std::string& dir, uint64_t seed, uint64_t begin,
                      uint64_t keys, uint32_t shards) {
  Campaign c;
  c.dir = dir;
  fs::create_directories(dir);
  c.manifest_path = dir + "/manifest.txt";
  GridMeta meta;
  meta.kind = rc4b::store::GridKind::kConsecutive;
  meta.seed = seed;
  meta.key_begin = begin;
  meta.key_end = begin + keys;
  meta.rows = kRows;
  c.manifest = rc4b::store::PlanShards(meta, shards, "grid");
  return c;
}

rc4b::orchestrate::CampaignOptions SchedulerOptions() {
  rc4b::orchestrate::CampaignOptions o;
  o.shard.checkpoint_keys = kCheckpointKeys;
  o.shard.workers = kShardThreads;
  o.max_parallel = kParallel;
  o.poll_ms = 5;
  return o;
}

// Runs one campaign to a durable merged grid: the measured operation.
IoStatus RunCampaign(const Campaign& c, rc4b::orchestrate::CampaignReport* report,
                     StoredGrid* merged) {
  if (IoStatus s = rc4b::store::WriteManifest(c.manifest_path, c.manifest); !s.ok()) {
    return s;
  }
  rc4b::orchestrate::CampaignScheduler scheduler(c.manifest, c.manifest_path,
                                                 SchedulerOptions());
  if (IoStatus s = scheduler.Run(report); !s.ok()) {
    return s;
  }
  if (IoStatus s = rc4b::store::MergeShardGrids(c.manifest, c.manifest_path, merged);
      !s.ok()) {
    return s;
  }
  return rc4b::store::WriteGridFileDurable(c.dir + "/merged.grid", merged->meta,
                                           merged->cells);
}

bool RowSumsEqual(const StoredGrid& grid, uint64_t expected) {
  const size_t cells = rc4b::store::CellsPerRow(grid.meta.kind);
  for (size_t r = 0; r < grid.meta.rows; ++r) {
    const auto* row = grid.cells.data() + r * cells;
    if (std::accumulate(row, row + cells, uint64_t{0}) != expected) {
      return false;
    }
  }
  return grid.meta.samples == expected;
}

double SecondsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-9; }

// Output checks on one finished campaign; returns whether it succeeded
// without retries or quarantine.
bool CheckCampaign(const Campaign& c, const rc4b::orchestrate::CampaignReport& report,
                   RunResult& result) {
  uint64_t attempts = 0;
  for (const auto& shard : report.shards) {
    attempts += shard.attempts;
  }
  StoredGrid on_disk;
  const IoStatus read = rc4b::store::ReadGridFile(c.dir + "/merged.grid", &on_disk);
  result.Check(read.ok(), "campaign-digraph: merged grid fails validation: " +
                              read.message());
  const bool complete = report.complete() && report.quarantined() == 0;
  result.Check(complete, "campaign-digraph: campaign incomplete: " + report.Summary());
  const bool rows_ok = read.ok() && RowSumsEqual(on_disk, c.manifest.grid.keys());
  result.Check(rows_ok, "campaign-digraph: merged row sums != campaign keys");
  return complete && rows_ok && attempts == c.manifest.shards.size();
}

}  // namespace

void RunCampaignDigraph(const RunConfig& config, RunResult& result) {
  const uint64_t seed = StreamSeed(config.seed);
  Tracer* tracer = result.tracer;
  int campaign_index = 0;
  const auto next_dir = [&] {
    return config.scratch_dir + "/campaign" + std::to_string(campaign_index++);
  };

  // Set-up: plan and write a manifest, then drive a one-shard warm-up
  // campaign through fork, lease, checkpoint and merge.
  OpLog log(RefKernel::kCore);
  const double setup_s = MedianRefSeconds(3, log.calibrator, [&](int) {
    const Campaign warm = PlanCampaign(next_dir(), seed, 0, kWarmKeys, 1);
    rc4b::orchestrate::CampaignReport report;
    StoredGrid merged;
    result.Check(RunCampaign(warm, &report, &merged).ok() && report.complete(),
                 "campaign-digraph: warm-up campaign failed");
    fs::remove_all(warm.dir);
  });

  uint64_t next_key = kWarmKeys;
  bool oracle_checked = false;
  double run_s = 0;
  double shard_busy_s = 0;
  uint64_t attempts = 0;
  uint64_t quarantined = 0;
  uint64_t checkpoints = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t max_campaign_bytes = 0;
  ReplayWork work;
  std::vector<double> engine_rates;
  std::vector<double> replay_rates;
  const int64_t start = NowNs();
  while (SecondsSince(start) < config.seconds) {
    const Campaign c = PlanCampaign(next_dir(), seed, next_key, kCampaignKeys, kShards);
    next_key += kCampaignKeys;
    rc4b::orchestrate::CampaignReport report;
    StoredGrid merged;
    // The CPU clock counts the forked workers once the scheduler has
    // reaped them, which it does before Run returns.
    const Stopwatch watch;
    const IoStatus status = RunCampaign(c, &report, &merged);
    const double t = log.Record(kCampaignKeys, watch);
    result.Check(status.ok(), "campaign-digraph: " + status.message());
    ++log.attempted;
    if (status.ok() && CheckCampaign(c, report, result)) {
      ++log.succeeded;
    }
    for (const auto& shard : report.shards) {
      attempts += shard.attempts;
      quarantined += shard.state == rc4b::orchestrate::ShardState::kQuarantined;
    }

    if (!oracle_checked) {
      // The first shard is the campaign's prefix slice: regenerate it
      // in-process on the scalar oracle and compare byte for byte.
      oracle_checked = true;
      GridMeta prefix = c.manifest.grid;
      prefix.key_begin = c.manifest.shards[0].key_begin;
      prefix.key_end = c.manifest.shards[0].key_end;
      StoredGrid shard0;
      const IoStatus read = rc4b::store::ReadGridFile(
          rc4b::store::ResolveManifestPath(c.manifest_path, c.manifest.shards[0].path),
          &shard0);
      const StoredGrid expected = rc4b::store::GenerateStoredGrid(prefix, 1, 1);
      result.Check(read.ok() && rc4b::store::CheckGridsEqual(
                                    shard0, expected, "shard0", "oracle").ok(),
                   "campaign-digraph: prefix slice differs from GenerateStoredGrid");
    }

    if (tracer != nullptr) {
      // In-process replay of the same manifest: RunShard per shard with
      // checkpoint counts, timed durable writes and validating reads of the
      // files it produced, the merge, and the engine replay per shard.
      run_s += t;
      Campaign replay = c;
      replay.dir = c.dir + "-replay";
      fs::create_directories(replay.dir);
      replay.manifest_path = replay.dir + "/manifest.txt";
      result.Check(rc4b::store::WriteManifest(replay.manifest_path, replay.manifest).ok(),
                   "campaign-digraph: replay manifest write failed");
      const uint64_t file_bytes =
          fs::file_size(c.dir + "/merged.grid");  // every grid file is this size
      rc4b::store::ShardRunOptions options = SchedulerOptions().shard;
      options.on_checkpoint = [&](const rc4b::store::ShardRunResult&) {
        ++checkpoints;
        bytes_written += file_bytes;
        return IoStatus::Ok();
      };
      for (uint32_t i = 0; i < kShards; ++i) {
        const int64_t s0 = NowNs();
        rc4b::store::ShardRunResult run;
        {
          ScopedSpan span(tracer, "store.run_shard");
          result.Check(rc4b::store::RunShard(replay.manifest, replay.manifest_path,
                                             i, options, &run).ok() && run.finished,
                       "campaign-digraph: in-process shard run failed");
        }
        shard_busy_s += SecondsSince(s0);
        bytes_written += file_bytes;
        const std::string path = rc4b::store::ResolveManifestPath(
            replay.manifest_path, replay.manifest.shards[i].path);
        StoredGrid shard_grid;
        {
          ScopedSpan span(tracer, "store.validate");
          result.Check(rc4b::store::ReadGridFile(path, &shard_grid).ok(),
                       "campaign-digraph: replay shard fails validation");
        }
        bytes_read += file_bytes;
        {
          ScopedSpan span(tracer, "store.write");
          result.Check(rc4b::store::WriteGridFileDurable(path + ".rewrite",
                                                         shard_grid.meta,
                                                         shard_grid.cells).ok(),
                       "campaign-digraph: durable rewrite failed");
        }
        bytes_written += file_bytes;
        fs::remove(path + ".rewrite");

        // The shard's checkpoint steps once through the engine and once
        // through the traced replay: both must reproduce the shard grid,
        // and their rate ratio is the tracing overhead.
        const auto& entry = replay.manifest.shards[i];
        const double keys = static_cast<double>(entry.key_end - entry.key_begin);
        for (const bool traced : {false, true}) {
          rc4b::ConsecutiveAccumulator acc(kRows);
          const int64_t e0 = NowNs();
          for (uint64_t k = entry.key_begin; k < entry.key_end; k += kCheckpointKeys) {
            rc4b::EngineOptions eo;
            eo.keys = std::min(kCheckpointKeys, entry.key_end - k);
            eo.first_key = k;
            eo.seed = seed;
            eo.workers = kShardThreads;
            if (traced) {
              ReplayKeystreamEngine(eo, acc, *tracer, work);
            } else {
              rc4b::RunKeystreamEngine(eo, acc);
            }
          }
          (traced ? replay_rates : engine_rates).push_back(keys / SecondsSince(e0));
          result.Check(std::equal(acc.grid().Cells().begin(), acc.grid().Cells().end(),
                                  shard_grid.cells.begin(), shard_grid.cells.end()),
                       "campaign-digraph: engine or replay differs from the shard grid");
        }
      }
      StoredGrid replay_merged;
      IoStatus merge;
      {
        ScopedSpan span(tracer, "store.merge");
        merge = rc4b::store::MergeShardGrids(replay.manifest, replay.manifest_path,
                                             &replay_merged);
      }
      result.Check(merge.ok() && rc4b::store::CheckGridsEqual(replay_merged, merged,
                                                              "replay", "campaign").ok(),
                   "campaign-digraph: in-process replay differs from the campaign");
      bytes_read += kShards * file_bytes;
      fs::remove_all(replay.dir);
    }
    max_campaign_bytes = std::max(max_campaign_bytes, DirectoryBytes(c.dir));
    fs::remove_all(c.dir);
  }
  result.notes.push_back("largest campaign directory: " +
                         std::to_string(max_campaign_bytes) + " bytes");

  if (tracer != nullptr) {
    const double scaling = [&] {
      std::vector<double> ratios;
      for (int rep = 0; rep < 3; ++rep) {
        double t[2];
        for (const unsigned workers : {kWorkers, 1u}) {
          rc4b::ConsecutiveAccumulator acc(kRows);
          rc4b::EngineOptions eo;
          eo.keys = kShardKeys;
          eo.seed = seed;
          eo.workers = workers;
          const int64_t t0 = NowNs();
          rc4b::RunKeystreamEngine(eo, acc);
          t[workers == 1] = SecondsSince(t0);
        }
        ratios.push_back(t[1] / t[0]);
      }
      return Median(ratios);
    }();
    const auto totals = tracer->Aggregate();
    FillEngineLayers(totals, work, kRows * 65536.0 * (2 + 4), scaling, result);
    const auto busy = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.busy_s();
    };
    auto& layer = result.layer;
    layer["store.write_busy_s"] = busy("store.write");
    layer["store.validate_busy_s"] = busy("store.validate");
    layer["store.merge_busy_s"] = busy("store.merge");
    layer["store.checkpoints"] = static_cast<double>(checkpoints);
    layer["store.bytes_written"] = static_cast<double>(bytes_written);
    layer["store.bytes_read"] = static_cast<double>(bytes_read);
    const double ideal = shard_busy_s / kParallel;
    layer["orchestrate.run_s"] = run_s;
    layer["orchestrate.overhead_s"] = run_s - ideal;
    layer["orchestrate.worker_util"] = run_s > 0 ? ideal / run_s : 0.0;
    layer["orchestrate.attempts"] = static_cast<double>(attempts);
    layer["orchestrate.retries"] =
        static_cast<double>(attempts - log.attempted * kShards);
    layer["orchestrate.quarantined"] = static_cast<double>(quarantined);
    layer["trace.overhead_share"] = 1.0 - Median(replay_rates) / Median(engine_rates);
  }
  log.Fill(result, setup_s);
}

}  // namespace perfbench
