// Traced replay of the keystream engine's shard loop.
//
// The engine's stages (AES-CTR key derivation, KSA, PRGA, accumulation,
// shard fold) run inside RunKeystreamEngine / RunLongTermEngine and cannot be
// timed from outside. The replay calls the same public pieces in the
// engine's own order — Rc4KeyGenerator::Seek/NextKey, the lane kernel that
// ResolveKernelChoice picks (Init = KSA, Skip/Keystream = PRGA),
// ShardSink::Consume / StreamShardSink::ConsumeChunk, then MergeShard under
// the merge lock — with a span around each. Callers check that the replayed
// grid is byte-identical to the engine's, which proves the decomposition
// timed the same computation.
#ifndef PERFBENCH_ENGINE_REPLAY_H_
#define PERFBENCH_ENGINE_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/engine/keystream_engine.h"

namespace perfbench {

// Span names of the replay tree, children of kShardSpan.
inline constexpr const char* kJobSpan = "engine.job";
inline constexpr const char* kShardSpan = "engine.shard";
inline constexpr const char* kKeygenSpan = "crypto.keygen";
inline constexpr const char* kKsaSpan = "rc4.ksa";
inline constexpr const char* kPrgaSpan = "rc4.prga";
inline constexpr const char* kAccumulateSpan = "engine.accumulate";
inline constexpr const char* kFoldSpan = "engine.fold";
inline constexpr const char* kShardSetupSpan = "engine.shard_setup";

// Work the replay did, for the per-layer rates.
struct ReplayWork {
  uint64_t keys = 0;        // RC4 keys derived and scheduled
  uint64_t prga_bytes = 0;  // keystream bytes generated, drop included
};

void ReplayKeystreamEngine(const rc4b::EngineOptions& options,
                           rc4b::BiasAccumulator& accumulator, Tracer& tracer,
                           ReplayWork& work);
void ReplayLongTermEngine(const rc4b::LongTermEngineOptions& options,
                          rc4b::StreamAccumulator& accumulator, Tracer& tracer,
                          ReplayWork& work);

// Fills the crypto.*, rc4.* and engine.* layer metrics from the replay's
// spans and checks that the layers' self times add up to the shard spans
// exactly (every nanosecond of replay time is attributed to one layer).
void FillEngineLayers(const std::map<std::string, SpanTotals>& totals,
                      const ReplayWork& work, double shard_bytes,
                      double scaling_4t, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_REPLAY_H_
