// Sharded, batched RC4 keystream-statistics engine.
//
// The paper (Sect. 3.2) generated its keystream datasets on ~80 machines;
// every worker derived random 128-bit RC4 keys with AES-CTR, accumulated
// (position, value) counters locally, and merged them at the end. This engine
// reproduces that worker/merge structure on one machine and makes it the
// single hot path shared by dataset generation (src/biases/dataset.cc), the
// bias scans, and the benchmark harnesses:
//
//   * keys are sharded over the thread pool in contiguous [begin, end)
//     chunks; key number k is always key k of one AES-CTR stream (the shard
//     Seek()s to its range), so the generated key set — and therefore every
//     merged counter — is bit-exact for ANY worker count, including 1;
//   * each shard generates keystreams in batches (cache-friendly contiguous
//     rows) and feeds them to its own sink; grid sinks add into the
//     accumulator's one 64-bit grid under row-striped locks, each shard
//     starting its walk on a different stripe (src/engine/accumulators.h);
//   * each finished shard is retired exactly once, serialized by the engine.
//     Integer addition commutes, so no interleaving changes a count.
//
// Two generation modes cover the paper's datasets:
//   * RunKeystreamEngine — per-key initial keystreams of a fixed length
//     (consec512/first16-style short-term statistics, Fig. 4/5, Table 2);
//   * RunLongTermEngine — few keys, long streams (2^24+ bytes) consumed in
//     overlapping chunks (Table 1 long-term digraphs, ABSAB/formula (1),
//     aligned digraphs/formula (8)).
#ifndef SRC_ENGINE_KEYSTREAM_ENGINE_H_
#define SRC_ENGINE_KEYSTREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace rc4b {

// A batch of `rows` keystreams of `length` bytes each, stored contiguously
// row-major. Row r holds Z_1 .. Z_length of one RC4 key (after any
// engine-level drop).
struct KeystreamBatch {
  const uint8_t* data = nullptr;
  size_t rows = 0;
  size_t length = 0;

  std::span<const uint8_t> Row(size_t r) const {
    return std::span<const uint8_t>(data + r * length, length);
  }
};

// Per-shard consumer. The engine creates one per shard and calls Consume()
// from exactly one thread. Sinks that add into state shared with other
// shards (the accumulator's grid) must synchronize those adds themselves.
class ShardSink {
 public:
  virtual ~ShardSink() = default;
  virtual void Consume(const KeystreamBatch& batch) = 0;
};

// A statistics accumulator fed by the engine. Implementations own the final
// statistic (typically a SingleByteGrid / DigraphGrid) and hand out shard
// sinks that feed it. The engine calls MakeShard() and MergeShard() serialized
// with each other, and MergeShard() exactly once per shard, after the
// shard's last Consume(); other shards may still be consuming.
class BiasAccumulator {
 public:
  virtual ~BiasAccumulator() = default;

  // Keystream bytes the engine must generate per key.
  virtual size_t KeystreamLength() const = 0;

  virtual std::unique_ptr<ShardSink> MakeShard() = 0;

  // `keys` is the number of keystreams the shard consumed.
  virtual void MergeShard(ShardSink& shard, uint64_t keys) = 0;
};

struct EngineOptions {
  uint64_t keys = 1 << 20;  // RC4 keys to sample
  unsigned workers = 0;     // shards; 0 = hardware concurrency
  uint64_t seed = 1;        // AES-CTR key-generator seed
  // Global index of the first key: the run covers keys [first_key,
  // first_key + keys) of the seed's AES-CTR stream. Separate processes can
  // therefore each generate a disjoint slice of one logical dataset and merge
  // the partial grids bit-exactly (src/store/), the same invariance the
  // in-process shards rely on.
  uint64_t first_key = 0;
  uint64_t drop = 0;  // initial keystream bytes discarded per key
  // Keystreams per generated batch; 0 = auto (the host's cached autotune
  // choice when $RC4B_AUTOTUNE_CACHE is valid, else 256).
  size_t batch_keys = 256;
  // RC4 streams generated in lockstep: 0 = auto, 1 = scalar Rc4, other
  // values round down to the nearest width the selected kernel supports
  // (logged once when rounding changes the value). Batches are
  // byte-identical for every width and every kernel — a kernel only
  // reorders the schedule, never the per-key math.
  size_t interleave = 0;
  // Lane-kernel selection (src/rc4/kernel_registry.h): "" = auto
  // ($RC4B_KERNEL env, else the cached autotune choice, else the best
  // kernel the CPU supports), or an explicit registered name ("scalar",
  // "ssse3", "avx2", "neon"). Unknown/unavailable names warn once and fall
  // back to scalar; interleave = 1 is always the scalar oracle.
  std::string kernel;
};

// Generates `options.keys` keystreams of accumulator.KeystreamLength() bytes
// and streams them through per-shard sinks. Key k is key number k of the
// AES-CTR stream seeded with `options.seed`, independent of sharding:
// merged results are bit-identical for any `workers`.
void RunKeystreamEngine(const EngineOptions& options, BiasAccumulator& accumulator);

// ------------------------------------------------------------------------
// Long-term (streaming) mode.

// Per-shard consumer of one key's long keystream, delivered as
// overlapping windows chunk[0 .. owned + Lookahead()): the first `owned`
// positions belong to this call; the trailing Lookahead() bytes are context
// shared with the next window (a digraph or ABSAB pattern starting at an
// owned position may read up to Lookahead() bytes past it).
//
// Window ordering: each key's windows always arrive in stream order, and
// every window's base offset within its key is a multiple of chunk_bytes
// (itself a 256-multiple), but with interleave > 1 the engine generates up
// to `interleave` keys in lockstep and round-robins their windows — window w
// of key k, then window w of key k+1, ... BeginKey() fires once per key, in
// key order, when the key's lockstep group starts. Sinks that accumulate
// commutative per-window counters (all current ones) are unaffected; a sink
// that needs strictly sequential per-key delivery must be run with
// LongTermEngineOptions::interleave = 1.
//
// A lockstep group's windows arrive in one ConsumeGroup() call: `lanes`
// windows of equal length, lane m's starting at rows[m * stride], the last
// one ending where `rows` ends, each owning its first `owned` positions. The
// default hands them to ConsumeChunk() lane by lane, in key order; a sink
// may instead walk the whole group at once (the long-term digraph sink does).
// The scalar path and the remainder keys after the last group call
// ConsumeChunk() directly.
class StreamShardSink {
 public:
  virtual ~StreamShardSink() = default;

  // Called at the start of each key's stream; `owned` positions restart at 0.
  virtual void BeginKey() {}

  virtual void ConsumeChunk(std::span<const uint8_t> chunk, size_t owned) = 0;

  virtual void ConsumeGroup(std::span<const uint8_t> rows, size_t lanes,
                            size_t stride, size_t owned) {
    const size_t window = rows.size() - (lanes - 1) * stride;
    for (size_t m = 0; m < lanes; ++m) {
      ConsumeChunk(rows.subspan(m * stride, window), owned);
    }
  }
};

class StreamAccumulator {
 public:
  virtual ~StreamAccumulator() = default;

  // Context bytes past the owned region each window must carry.
  virtual size_t Lookahead() const = 0;

  // Extra per-key drop on top of LongTermEngineOptions::drop (e.g. the
  // aligned-digraph dataset realigns to a 256-block boundary).
  virtual uint64_t ExtraDrop() const { return 0; }

  virtual std::unique_ptr<StreamShardSink> MakeShard() = 0;

  // `keys` is the shard's key count, `owned_per_key` the number of owned
  // positions each key contributed.
  virtual void MergeShard(StreamShardSink& shard, uint64_t keys,
                          uint64_t owned_per_key) = 0;
};

struct LongTermEngineOptions {
  uint64_t keys = 1 << 8;
  uint64_t bytes_per_key = 1 << 24;  // rounded down to a 256-byte multiple
  uint64_t drop = 1024;              // initial bytes discarded per key
  unsigned workers = 0;
  uint64_t seed = 1;
  uint64_t first_key = 0;  // global key-range offset (see EngineOptions)
  // Owned bytes per window (multiple of 256), capped at the per-key stream.
  // A lockstep group of W lanes holds W windows: W * chunk_bytes / 256
  // digraphs per counter class per group, in a W * (chunk_bytes + lookahead)
  // buffer per worker (16 MiB at 64 lanes).
  size_t chunk_bytes = 1 << 18;
  // Keys generated in lockstep per shard (see EngineOptions::interleave and
  // the StreamShardSink window-ordering note above). 0 = auto, 1 = scalar.
  size_t interleave = 0;
  // Lane-kernel selection, same semantics as EngineOptions::kernel.
  std::string kernel;
};

// Streams `bytes_per_key` keystream bytes per key (rounded down to whole
// 256-byte blocks; the chunk size never changes the sample count) through
// per-shard stream sinks. Sharding-invariant exactly like RunKeystreamEngine.
void RunLongTermEngine(const LongTermEngineOptions& options,
                       StreamAccumulator& accumulator);

}  // namespace rc4b

#endif  // SRC_ENGINE_KEYSTREAM_ENGINE_H_
