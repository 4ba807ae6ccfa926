#include "perfbench/engine_replay.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/rc4/kernel.h"
#include "src/rc4/kernel_registry.h"
#include "src/rc4/keygen.h"
#include "src/rc4/rc4.h"
#include "src/stats/counters.h"

namespace perfbench {

namespace {

using rc4b::KernelChoice;
using rc4b::Rc4;
using rc4b::Rc4KeyGenerator;
using rc4b::Rc4LaneKernel;

constexpr size_t kKeySize = Rc4KeyGenerator::kRc4KeySize;

void GatherKeys(Rc4KeyGenerator& keygen, size_t lanes, uint8_t* out) {
  for (size_t m = 0; m < lanes; ++m) {
    const auto key = keygen.NextKey();
    std::copy(key.begin(), key.end(), out + m * kKeySize);
  }
}

// One scalar key: the engine's width-1 path and the tail of every group.
void ScalarKey(Tracer& tracer, Rc4KeyGenerator& keygen, uint64_t drop,
               std::optional<Rc4>& rc4) {
  std::array<uint8_t, kKeySize> key;
  {
    ScopedSpan s(&tracer, kKeygenSpan);
    key = keygen.NextKey();
  }
  {
    ScopedSpan s(&tracer, kKsaSpan);
    rc4.emplace(key);
  }
  if (drop != 0) {
    ScopedSpan s(&tracer, kPrgaSpan);
    rc4->Skip(drop);
  }
}

}  // namespace

void ReplayKeystreamEngine(const rc4b::EngineOptions& options,
                           rc4b::BiasAccumulator& accumulator, Tracer& tracer,
                           ReplayWork& work) {
  ScopedSpan job(&tracer, kJobSpan);
  const size_t length = accumulator.KeystreamLength();
  const KernelChoice choice =
      rc4b::ResolveKernelChoice(options.kernel, options.interleave);
  // The engine's batch size for an explicit (nonzero) batch_keys request.
  const size_t batch_keys = std::max<size_t>(options.batch_keys, choice.width);
  std::mutex merge_mutex;
  rc4b::ParallelChunks(options.keys, options.workers,
                       [&](unsigned, uint64_t begin, uint64_t end) {
    ScopedSpan shard(&tracer, kShardSpan, job.id());
    Rc4KeyGenerator keygen(options.seed);
    {
      ScopedSpan s(&tracer, kKeygenSpan);
      keygen.Seek(options.first_key + begin);
    }
    std::unique_ptr<rc4b::ShardSink> sink;
    std::unique_ptr<Rc4LaneKernel> kernel;
    std::vector<uint8_t> keybuf(choice.width * kKeySize);
    rc4b::AlignedVector<uint8_t> buffer;
    {
      ScopedSpan s(&tracer, kShardSetupSpan);
      {
        std::lock_guard<std::mutex> lock(merge_mutex);
        sink = accumulator.MakeShard();
      }
      if (choice.width > 1) {
        kernel = choice.kernel->make(choice.width);
      }
      buffer.assign(batch_keys * length, 0);
    }
    std::optional<Rc4> rc4;
    for (uint64_t k = begin; k < end;) {
      const size_t rows =
          static_cast<size_t>(std::min<uint64_t>(batch_keys, end - k));
      const size_t lanes = kernel != nullptr ? kernel->Width() : rows + 1;
      size_t r = 0;
      for (; r + lanes <= rows; r += lanes) {
        {
          ScopedSpan s(&tracer, kKeygenSpan);
          GatherKeys(keygen, lanes, keybuf.data());
        }
        {
          ScopedSpan s(&tracer, kKsaSpan);
          kernel->Init(std::span<const uint8_t>(keybuf.data(), lanes * kKeySize),
                       kKeySize);
        }
        ScopedSpan s(&tracer, kPrgaSpan);
        if (options.drop != 0) {
          kernel->Skip(options.drop);
        }
        kernel->Keystream(buffer.data() + r * length, length, length);
      }
      for (; r < rows; ++r) {
        ScalarKey(tracer, keygen, options.drop, rc4);
        ScopedSpan s(&tracer, kPrgaSpan);
        rc4->Keystream(std::span<uint8_t>(buffer.data() + r * length, length));
      }
      {
        ScopedSpan s(&tracer, kAccumulateSpan);
        sink->Consume(rc4b::KeystreamBatch{buffer.data(), rows, length});
      }
      k += rows;
    }
    ScopedSpan fold(&tracer, kFoldSpan);
    std::lock_guard<std::mutex> lock(merge_mutex);
    accumulator.MergeShard(*sink, end - begin);
  });
  work.keys += options.keys;
  work.prga_bytes += options.keys * (length + options.drop);
}

void ReplayLongTermEngine(const rc4b::LongTermEngineOptions& options,
                          rc4b::StreamAccumulator& accumulator, Tracer& tracer,
                          ReplayWork& work) {
  ScopedSpan job(&tracer, kJobSpan);
  const size_t lookahead = accumulator.Lookahead();
  const size_t chunk = std::max<size_t>(options.chunk_bytes, 256);
  const uint64_t owned_per_key = options.bytes_per_key / 256 * 256;
  const uint64_t full_chunks = owned_per_key / chunk;
  const size_t tail = static_cast<size_t>(owned_per_key % chunk);
  const uint64_t drop = options.drop + accumulator.ExtraDrop();
  const KernelChoice choice =
      rc4b::ResolveKernelChoice(options.kernel, options.interleave);
  std::mutex merge_mutex;
  rc4b::ParallelChunks(options.keys, options.workers,
                       [&](unsigned, uint64_t begin, uint64_t end) {
    ScopedSpan shard(&tracer, kShardSpan, job.id());
    Rc4KeyGenerator keygen(options.seed);
    {
      ScopedSpan s(&tracer, kKeygenSpan);
      keygen.Seek(options.first_key + begin);
    }
    std::unique_ptr<rc4b::StreamShardSink> sink;
    std::unique_ptr<Rc4LaneKernel> kernel;
    std::vector<uint8_t> keybuf(choice.width * kKeySize);
    rc4b::AlignedVector<uint8_t> buffer;
    {
      ScopedSpan s(&tracer, kShardSetupSpan);
      {
        std::lock_guard<std::mutex> lock(merge_mutex);
        sink = accumulator.MakeShard();
      }
      if (choice.width > 1) {
        kernel = choice.kernel->make(choice.width);
      }
      buffer.assign(choice.width * (chunk + lookahead), 0);
    }
    const uint64_t count = end - begin;
    const size_t lanes = kernel != nullptr ? kernel->Width() : 0;
    const size_t stride = chunk + lookahead;
    uint64_t k = 0;
    // Lockstep groups, windows delivered round-robin in key order.
    for (; kernel != nullptr && k + lanes <= count; k += lanes) {
      {
        ScopedSpan s(&tracer, kKeygenSpan);
        GatherKeys(keygen, lanes, keybuf.data());
      }
      {
        ScopedSpan s(&tracer, kKsaSpan);
        kernel->Init(std::span<const uint8_t>(keybuf.data(), lanes * kKeySize),
                     kKeySize);
      }
      {
        ScopedSpan s(&tracer, kPrgaSpan);
        if (drop != 0) {
          kernel->Skip(drop);
        }
      }
      for (size_t m = 0; m < lanes; ++m) {
        sink->BeginKey();
      }
      {
        ScopedSpan s(&tracer, kPrgaSpan);
        kernel->Keystream(buffer.data(), lookahead, stride);
      }
      for (uint64_t c = 0; c < full_chunks; ++c) {
        {
          ScopedSpan s(&tracer, kPrgaSpan);
          kernel->Keystream(buffer.data() + lookahead, chunk, stride);
        }
        {
          ScopedSpan s(&tracer, kAccumulateSpan);
          for (size_t m = 0; m < lanes; ++m) {
            sink->ConsumeChunk(std::span<const uint8_t>(
                                   buffer.data() + m * stride, chunk + lookahead),
                               chunk);
          }
        }
        if (lookahead != 0) {
          for (size_t m = 0; m < lanes; ++m) {
            std::memmove(buffer.data() + m * stride,
                         buffer.data() + m * stride + chunk, lookahead);
          }
        }
      }
      if (tail != 0) {
        {
          ScopedSpan s(&tracer, kPrgaSpan);
          kernel->Keystream(buffer.data() + lookahead, tail, stride);
        }
        ScopedSpan s(&tracer, kAccumulateSpan);
        for (size_t m = 0; m < lanes; ++m) {
          sink->ConsumeChunk(std::span<const uint8_t>(buffer.data() + m * stride,
                                                      tail + lookahead),
                             tail);
        }
      }
    }
    // Scalar remainder: one key at a time, sliding overlapping windows.
    std::optional<Rc4> rc4;
    uint8_t* row = buffer.data();
    for (; k < count; ++k) {
      ScalarKey(tracer, keygen, drop, rc4);
      sink->BeginKey();
      {
        ScopedSpan s(&tracer, kPrgaSpan);
        rc4->Keystream(std::span<uint8_t>(row, lookahead));
      }
      for (uint64_t c = 0; c < full_chunks; ++c) {
        {
          ScopedSpan s(&tracer, kPrgaSpan);
          rc4->Keystream(std::span<uint8_t>(row + lookahead, chunk));
        }
        {
          ScopedSpan s(&tracer, kAccumulateSpan);
          sink->ConsumeChunk(std::span<const uint8_t>(row, chunk + lookahead),
                             chunk);
        }
        if (lookahead != 0) {
          std::memmove(row, row + chunk, lookahead);
        }
      }
      if (tail != 0) {
        {
          ScopedSpan s(&tracer, kPrgaSpan);
          rc4->Keystream(std::span<uint8_t>(row + lookahead, tail));
        }
        ScopedSpan s(&tracer, kAccumulateSpan);
        sink->ConsumeChunk(std::span<const uint8_t>(row, tail + lookahead), tail);
      }
    }
    ScopedSpan fold(&tracer, kFoldSpan);
    std::lock_guard<std::mutex> lock(merge_mutex);
    accumulator.MergeShard(*sink, count, owned_per_key);
  });
  work.keys += options.keys;
  work.prga_bytes += options.keys * (drop + lookahead + owned_per_key);
}

void FillEngineLayers(const std::map<std::string, SpanTotals>& totals,
                      const ReplayWork& work, double shard_bytes,
                      double scaling_4t, RunResult& result) {
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals shard = get(kShardSpan);
  const SpanTotals keygen = get(kKeygenSpan);
  const SpanTotals ksa = get(kKsaSpan);
  const SpanTotals prga = get(kPrgaSpan);
  const SpanTotals accumulate = get(kAccumulateSpan);
  const SpanTotals fold = get(kFoldSpan);
  const SpanTotals setup = get(kShardSetupSpan);
  // Every replay span is a shard or one of its sequential children, so the
  // layers' self times must account for the shard spans to the nanosecond.
  const int64_t attributed = shard.self_ns + keygen.self_ns + ksa.self_ns +
                             prga.self_ns + accumulate.self_ns + fold.self_ns +
                             setup.self_ns;
  result.Check(shard.count > 0 && attributed == shard.busy_ns,
               "engine replay: layer self times do not sum to the shard spans");
  const double busy = shard.busy_s() > 0 ? shard.busy_s() : 1.0;
  const auto rate = [](double amount, double seconds) {
    return seconds > 0 ? amount / seconds : 0.0;
  };
  const double keys = static_cast<double>(work.keys);
  auto& layer = result.layer;
  layer["crypto.keygen_busy_s"] = keygen.self_s();
  layer["crypto.keygen_keys_per_s"] = rate(keys, keygen.self_s());
  layer["crypto.keygen_share"] = keygen.self_s() / busy;
  layer["rc4.ksa_busy_s"] = ksa.self_s();
  layer["rc4.ksa_keys_per_s"] = rate(keys, ksa.self_s());
  layer["rc4.ksa_share"] = ksa.self_s() / busy;
  layer["rc4.prga_busy_s"] = prga.self_s();
  layer["rc4.prga_mb_per_s"] =
      rate(static_cast<double>(work.prga_bytes) / (1 << 20), prga.self_s());
  layer["rc4.prga_share"] = prga.self_s() / busy;
  layer["engine.accumulate_busy_s"] = accumulate.self_s();
  layer["engine.fold_busy_s"] = fold.self_s();
  layer["engine.self_s"] = shard.self_s();
  layer["engine.shard_setup_s"] = setup.self_s();
  layer["engine.shard_bytes"] = shard_bytes;
  layer["engine.scaling_4t"] = scaling_4t;
}

}  // namespace perfbench
