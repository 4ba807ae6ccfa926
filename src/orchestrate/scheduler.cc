#include "src/orchestrate/scheduler.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "src/common/fault_injector.h"
#include "src/orchestrate/lease.h"
#include "src/store/grid_file.h"

namespace rc4b::orchestrate {

namespace {

std::string OwnerTag(pid_t pid, uint32_t attempt) {
  return std::to_string(pid) + ".a" + std::to_string(attempt);
}

// The provenance a valid final grid for shard `index` must carry.
store::GridMeta WantedShardMeta(const store::Manifest& manifest, uint32_t index) {
  store::GridMeta want = manifest.grid;
  want.key_begin = manifest.shards[index].key_begin;
  want.key_end = manifest.shards[index].key_end;
  want.samples = 0;
  return want;
}

// Full validation of a shard's final grid: readable, CRCs good, same
// dataset, exact key range. This is the scheduler's defense against workers
// that exited 0 over an artifact corrupted after commit (crc-flip). The
// view checks everything ReadGridFile does without copying the cells.
IoStatus ValidateShardFinal(const store::Manifest& manifest, uint32_t index,
                            const std::string& final_path) {
  store::GridFileView grid;
  if (IoStatus status = grid.Open(final_path); !status.ok()) {
    return status;
  }
  const store::GridMeta want = WantedShardMeta(manifest, index);
  if (IoStatus status = store::CheckSameDataset(want, grid.meta(), final_path);
      !status.ok()) {
    return status;
  }
  if (grid.meta().key_begin != want.key_begin ||
      grid.meta().key_end != want.key_end) {
    return IoStatus::Fail(final_path + ": covers keys [" +
                          std::to_string(grid.meta().key_begin) + ", " +
                          std::to_string(grid.meta().key_end) +
                          "), shard owns [" + std::to_string(want.key_begin) +
                          ", " + std::to_string(want.key_end) + ")");
  }
  return IoStatus::Ok();
}

// The keys a shard's checkpoint covers, if it is a valid one: readable, CRCs
// good, same dataset, and a prefix of the shard's key range.
std::optional<uint64_t> ValidCheckpointKeys(const store::Manifest& manifest,
                                            uint32_t index,
                                            const std::string& ckpt_path) {
  store::GridFileView ckpt;
  if (!ckpt.Open(ckpt_path).ok()) {
    return std::nullopt;
  }
  const store::GridMeta want = WantedShardMeta(manifest, index);
  if (!store::CheckSameDataset(want, ckpt.meta(), ckpt_path).ok() ||
      ckpt.meta().key_begin != want.key_begin ||
      ckpt.meta().key_end > want.key_end) {
    return std::nullopt;
  }
  return ckpt.meta().key_end - want.key_begin;
}

// Keys completed per on-disk provenance: the final grid if valid, else a
// valid checkpoint's covered prefix, else zero.
uint64_t ShardProgressKeys(const store::Manifest& manifest, uint32_t index,
                           const std::string& final_path) {
  const store::ShardEntry& shard = manifest.shards[index];
  if (ValidateShardFinal(manifest, index, final_path).ok()) {
    return shard.key_end - shard.key_begin;
  }
  return ValidCheckpointKeys(manifest, index, store::CheckpointPath(final_path))
      .value_or(0);
}

bool PathExists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

// Worker body, run in the forked child. Exit code follows the shared
// contract: 0 done, 75 retryable (lease busy/lost, transient I/O), 1 fatal.
int RunShardWorker(const store::Manifest& manifest,
                   const std::string& manifest_path, uint32_t index,
                   const CampaignOptions& options, uint32_t attempt,
                   Clock* clock) {
  // The inherited environment, not the parent's parse of it, decides which
  // faults this worker runs under.
  FaultInjector::Instance().ReloadFromEnv();
  const std::string final_path =
      store::ResolveManifestPath(manifest_path, manifest.shards[index].path);
  const std::string lease_path = LeasePath(final_path);
  const std::string owner = OwnerTag(::getpid(), attempt);
  Lease lease;
  if (IoStatus status = AcquireLease(lease_path, owner, clock->NowMs(),
                                     options.lease_ttl_ms, attempt, &lease);
      !status.ok()) {
    std::fprintf(stderr, "shard %u worker: %s\n", index, status.message().c_str());
    return ExitCodeForStatus(status);
  }
  store::ShardRunOptions run = options.shard;
  run.on_checkpoint = [&](const store::ShardRunResult&) {
    // Checkpoint cadence is heartbeat cadence; losing the lease here stops
    // the worker before it can touch files a stealer now owns.
    return RenewLease(lease_path, owner, clock->NowMs());
  };
  store::ShardRunResult result;
  const IoStatus status = store::RunShard(manifest, manifest_path, index, run,
                                          &result);
  ReleaseLease(lease_path, owner);
  if (!status.ok()) {
    std::fprintf(stderr, "shard %u worker: %s\n", index, status.message().c_str());
  }
  return ExitCodeForStatus(status);
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kPending:
      return "pending";
    case ShardState::kRunning:
      return "running";
    case ShardState::kDone:
      return "done";
    case ShardState::kSkipped:
      return "skipped";
    case ShardState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

bool CampaignReport::complete() const {
  return std::all_of(shards.begin(), shards.end(), [](const ShardStatus& s) {
    return s.state == ShardState::kDone || s.state == ShardState::kSkipped;
  });
}

size_t CampaignReport::quarantined() const {
  return static_cast<size_t>(
      std::count_if(shards.begin(), shards.end(), [](const ShardStatus& s) {
        return s.state == ShardState::kQuarantined;
      }));
}

std::string CampaignReport::Summary() const {
  size_t done = 0;
  for (const ShardStatus& shard : shards) {
    done += shard.state == ShardState::kDone || shard.state == ShardState::kSkipped
                ? 1
                : 0;
  }
  std::string text = "campaign: " + std::to_string(done) + "/" +
                     std::to_string(shards.size()) + " shards complete, " +
                     std::to_string(quarantined()) + " quarantined\n";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardStatus& shard = shards[i];
    text += "  shard " + std::to_string(i) + ": " + ShardStateName(shard.state) +
            " attempts=" + std::to_string(shard.attempts) +
            " keys=" + std::to_string(shard.keys_completed);
    if (!shard.note.empty()) {
      text += " (" + shard.note + ")";
    }
    for (const std::string& file : shard.quarantined_files) {
      text += "\n    quarantined file: " + file;
    }
    text += "\n";
  }
  return text;
}

std::vector<uint64_t> CampaignProgress(const store::Manifest& manifest,
                                       const std::string& manifest_path) {
  std::vector<uint64_t> keys(manifest.shards.size(), 0);
  for (uint32_t i = 0; i < manifest.shards.size(); ++i) {
    const std::string final_path =
        store::ResolveManifestPath(manifest_path, manifest.shards[i].path);
    keys[i] = ShardProgressKeys(manifest, i, final_path);
  }
  return keys;
}

CampaignScheduler::CampaignScheduler(store::Manifest manifest,
                                     std::string manifest_path,
                                     CampaignOptions options)
    : manifest_(std::move(manifest)),
      manifest_path_(std::move(manifest_path)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : &SystemClock::Instance()) {}

std::string CampaignScheduler::FinalPath(uint32_t index) const {
  return store::ResolveManifestPath(manifest_path_, manifest_.shards[index].path);
}

void CampaignScheduler::InitialScan() {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    const store::ShardEntry& shard = manifest_.shards[i];
    if (shard.key_end <= options_.merged_through_key) {
      slot.status.state = ShardState::kSkipped;
      slot.status.keys_completed = shard.key_end - shard.key_begin;
      slot.status.note = "covered by previous merge";
      continue;
    }
    const std::string final_path = FinalPath(i);
    if (PathExists(final_path) &&
        ValidateShardFinal(manifest_, i, final_path).ok()) {
      slot.status.state = ShardState::kDone;
      slot.status.keys_completed = shard.key_end - shard.key_begin;
      slot.status.note = "already complete";
      continue;
    }
    RecordProgress(i);  // a valid checkpoint resumes inside the worker
  }
}

void CampaignScheduler::RecordProgress(uint32_t index) {
  slots_[index].status.keys_completed =
      ShardProgressKeys(manifest_, index, FinalPath(index));
}

size_t CampaignScheduler::QuarantineInvalidArtifacts(uint32_t index) {
  Slot& slot = slots_[index];
  const std::string final_path = FinalPath(index);
  const std::string ckpt_path = store::CheckpointPath(final_path);
  size_t moved = 0;
  const auto set_aside = [&](const std::string& path, bool valid) {
    if (!PathExists(path) || valid) {
      return;
    }
    const std::string dest =
        path + ".quarantined" + std::to_string(slot.status.attempts);
    if (std::rename(path.c_str(), dest.c_str()) == 0) {
      slot.status.quarantined_files.push_back(dest);
      ++moved;
    } else {
      std::remove(path.c_str());  // can't set aside: at least unblock retries
      ++moved;
    }
  };
  set_aside(final_path, ValidateShardFinal(manifest_, index, final_path).ok());
  set_aside(ckpt_path, ValidCheckpointKeys(manifest_, index, ckpt_path).has_value());
  return moved;
}

void CampaignScheduler::AttemptFailed(uint32_t index, const std::string& reason,
                                      uint64_t now_ms) {
  Slot& slot = slots_[index];
  RecordProgress(index);
  if (slot.status.attempts >= options_.retry.max_attempts) {
    slot.status.state = ShardState::kQuarantined;
    slot.status.note = "quarantined after " +
                       std::to_string(slot.status.attempts) +
                       " attempts; last failure: " + reason;
    std::fprintf(stderr, "campaign: shard %u %s\n", index,
                 slot.status.note.c_str());
    return;
  }
  slot.status.state = ShardState::kPending;
  slot.status.note = reason;
  slot.not_before_ms =
      now_ms + options_.retry.DelayMs(slot.status.attempts, index);
}

void CampaignScheduler::Launch(uint32_t index, uint64_t now_ms) {
  Slot& slot = slots_[index];
  ++slot.status.attempts;
  // Flush before fork so buffered output is not emitted twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    // Could not spawn: not the shard's fault, so no attempt is consumed;
    // retry after one backoff step.
    --slot.status.attempts;
    slot.status.note = "fork failed";
    slot.not_before_ms = now_ms + options_.retry.DelayMs(1, index);
    return;
  }
  if (pid == 0) {
    // Child: run the shard and leave through _exit — the worker must not
    // unwind into the parent's atexit/test machinery.
    ::_exit(RunShardWorker(manifest_, manifest_path_, index, options_,
                           slot.status.attempts, clock_));
  }
  slot.pid = pid;
  slot.launched_ms = now_ms;
  slot.kill_sent = false;
  slot.status.state = ShardState::kRunning;
}

void CampaignScheduler::HandleExit(uint32_t index, int wait_status,
                                   uint64_t now_ms) {
  Slot& slot = slots_[index];
  const pid_t pid = slot.pid;
  slot.pid = -1;
  // The worker is gone; if the lease is still its own, break it now instead
  // of waiting out the TTL.
  const std::string lease_path = LeasePath(FinalPath(index));
  Lease lease;
  if (ReadLeaseFile(lease_path, &lease).ok() &&
      lease.owner.rfind(std::to_string(pid) + ".", 0) == 0) {
    std::remove(lease_path.c_str());
  }

  if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == kExitOk) {
    // Trust but verify: the artifact, not the exit code, is the source of
    // truth (a byte flipped after commit must not reach the merge).
    const IoStatus valid = ValidateShardFinal(manifest_, index, FinalPath(index));
    if (valid.ok()) {
      slot.status.state = ShardState::kDone;
      slot.status.keys_completed =
          manifest_.shards[index].key_end - manifest_.shards[index].key_begin;
      slot.status.note.clear();
      return;
    }
    QuarantineInvalidArtifacts(index);
    AttemptFailed(index, "final grid failed validation: " + valid.message(),
                  now_ms);
    return;
  }
  if (WIFSIGNALED(wait_status)) {
    AttemptFailed(index,
                  "worker killed by signal " + std::to_string(WTERMSIG(wait_status)),
                  now_ms);
    return;
  }
  const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
  if (code == kExitRetryable) {
    AttemptFailed(index, "worker exited retryable", now_ms);
    return;
  }
  // Fatal exit. If corrupt artifacts explain it, set them aside and retry
  // from a clean slate; otherwise retrying the same input cannot help.
  if (QuarantineInvalidArtifacts(index) > 0) {
    AttemptFailed(index,
                  "worker exited fatal (code " + std::to_string(code) +
                      "); corrupt artifacts set aside",
                  now_ms);
    return;
  }
  RecordProgress(index);
  slot.status.state = ShardState::kQuarantined;
  slot.status.note = "fatal worker exit (code " + std::to_string(code) + ")";
  std::fprintf(stderr, "campaign: shard %u %s\n", index, slot.status.note.c_str());
}

IoStatus CampaignScheduler::Run(CampaignReport* report) {
  *report = CampaignReport{};
  if (IoStatus status = store::ValidateManifest(manifest_, manifest_path_);
      !status.ok()) {
    return status;
  }
  slots_.assign(manifest_.shards.size(), Slot{});
  InitialScan();

  while (true) {
    const uint64_t now = clock_->NowMs();
    // Reap exited workers.
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.status.state != ShardState::kRunning) {
        continue;
      }
      int wait_status = 0;
      const pid_t got = ::waitpid(slot.pid, &wait_status, WNOHANG);
      if (got == slot.pid) {
        HandleExit(i, wait_status, now);
      } else if (got < 0) {
        slot.pid = -1;
        AttemptFailed(i, "worker process lost (waitpid failed)", now);
      }
    }
    // Kill workers whose lease heartbeat went stale (stalled I/O, livelock).
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.status.state != ShardState::kRunning || slot.kill_sent) {
        continue;
      }
      uint64_t heartbeat = slot.launched_ms;
      Lease lease;
      if (ReadLeaseFile(LeasePath(FinalPath(i)), &lease).ok()) {
        heartbeat = std::max(heartbeat, lease.heartbeat_ms);
      }
      if (heartbeat <= now && now - heartbeat >= options_.lease_ttl_ms) {
        ::kill(slot.pid, SIGKILL);  // reaped (as signaled) on the next poll
        slot.kill_sent = true;
        slot.status.note = "heartbeat stale; worker killed";
      }
    }
    // Launch pending shards under the parallelism cap and backoff gates.
    uint32_t running = 0;
    for (const Slot& slot : slots_) {
      running += slot.status.state == ShardState::kRunning ? 1 : 0;
    }
    bool pending = false;
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].status.state != ShardState::kPending) {
        continue;
      }
      pending = true;
      if (running < options_.max_parallel && now >= slots_[i].not_before_ms) {
        Launch(i, now);
        ++running;
      }
    }
    if (running == 0 && !pending) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
  }

  report->shards.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    report->shards.push_back(slot.status);
  }
  return IoStatus::Ok();
}

}  // namespace rc4b::orchestrate
