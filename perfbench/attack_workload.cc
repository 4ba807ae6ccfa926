// attack-mix: a fixed interleaving of WPA-TKIP trailer (Sect. 5) and HTTPS
// cookie (Sect. 6) attack trials on sim::RunTrials. Each trial simulates the
// capture, builds its likelihood tables, and runs the RecoveryEngine under a
// candidate budget against a verifier: the CRC(MIC||ICV) relation for TKIP,
// the truth oracle standing in for the server for cookies.
//
// Operating point (README.md): at this commit each family recovers in a
// mid-range share of trials, so a recovery regression moves success_share.
#include <cmath>
#include <memory>

#include "perfbench/workloads.h"
#include "src/core/rank.h"
#include "src/recovery/engine.h"
#include "src/recovery/likelihood_source.h"
#include "src/sim/cookie_sim.h"
#include "src/sim/runner.h"
#include "src/sim/tkip_sim.h"
#include "src/tkip/attack.h"
#include "src/tkip/tsc_model.h"

namespace perfbench {

namespace {

using rc4b::Bytes;

// TKIP operating point: attacker model from 2^10 keys per TSC1 class,
// shrunk to an RMS relative bias of kTkipBiasRms, 2^15 captured frames,
// 2^14 candidates.
constexpr uint64_t kTkipModelKeys = uint64_t{1} << 10;
constexpr double kTkipBiasRms = 0.021;
constexpr uint64_t kTkipSamples = uint64_t{1} << 15;
constexpr uint64_t kTkipBudget = uint64_t{1} << 14;
// Cookie operating point: 16-character base64 cookie, ABSAB gaps up to 128,
// kCookieSamples captured requests, 2^10-best Algorithm 2 list.
constexpr size_t kCookieLength = 16;
constexpr uint64_t kCookieSamples = uint64_t{11} << 27;
constexpr uint64_t kCookieBudget = uint64_t{1} << 10;

// Trials per batch: even indices TKIP, odd indices cookie.
constexpr uint64_t kBatchTrials = 16;

struct Trial {
  bool tkip = false;
  bool found = false;
  bool recovered = false;  // accepted candidate equals the truth
  bool false_hit = false;  // TKIP: accepted a CRC-consistent wrong trailer
  bool check_ok = true;
  uint64_t candidates = 0;
  double accept_s = 0;  // last captured frame -> accepted or budget spent
  double rank_log2 = 0;
  // Traced-only layer times.
  double capture_s = 0;
  double likelihood_s = 0;
  double recover_s = 0;
  double verify_s = 0;
  double nbest_s = 0;
  double rank_s = 0;
  double trial_s = 0;
};

double Since(int64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-9; }

class AttackMix {
 public:
  explicit AttackMix(uint64_t seed)
      : seed_(seed),
        msdu_(rc4b::sim::InjectedPacket()),
        model_(msdu_.size() + 1, msdu_.size() + rc4b::kTkipTrailerSize) {}

  // Set-up: the attacker's TKIP model and the cookie context.
  void SetUp() {
    const int64_t t0 = NowNs();
    model_ = rc4b::TkipTscModel(msdu_.size() + 1, msdu_.size() + rc4b::kTkipTrailerSize);
    model_.Generate(kTkipModelKeys, rc4b::sim::TrialSeed(seed_, 0x6d6f64656cULL),
                    kWorkers);
    const double raw = model_.RmsRelativeDeviation();
    if (raw > kTkipBiasRms) {
      model_.ShrinkTowardUniform(kTkipBiasRms / raw);
    }
    model_s_ = Since(t0);
    rc4b::sim::CookieSimOptions options;
    options.cookie_length = kCookieLength;
    cookie_ = std::make_unique<rc4b::sim::CookieSimContext>(options);
  }

  double model_s() const { return model_s_; }

  // Traced runs alternate traced and untraced batches; the ratio of their
  // rates is the tracing overhead.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  std::vector<Trial> RunBatch(uint64_t batch, unsigned workers, uint32_t parent) {
    const rc4b::sim::TrialRunnerOptions options{
        kBatchTrials, workers, rc4b::sim::TrialSeed(seed_ ^ 0x747269616cULL, batch)};
    return rc4b::sim::RunTrials<Trial>(options, [&](uint64_t t, rc4b::Xoshiro256& rng) {
      ScopedSpan span(tracer_, "sim.trial", parent);
      const int64_t t0 = NowNs();
      Trial trial = t % 2 == 0 ? TkipTrial(rng) : CookieTrial(rng);
      trial.trial_s = Since(t0);
      return trial;
    });
  }

 private:
  // Times one verifier call when tracing; the first call also closes the
  // candidate-generation phase (Algorithm 2 builds its whole list first).
  template <typename Verify>
  auto Timed(Trial& trial, int64_t& first_call, Verify&& verify) {
    return [&, verify](const Bytes& candidate) {
      if (tracer_ == nullptr) {
        return verify(candidate);
      }
      const int64_t t0 = NowNs();
      if (first_call == 0) {
        first_call = t0;
      }
      const bool ok = verify(candidate);
      trial.verify_s += Since(t0);
      return ok;
    };
  }

  Trial TkipTrial(rc4b::Xoshiro256& rng) {
    Trial trial;
    trial.tkip = true;
    const rc4b::TkipPeer peer = rc4b::sim::RandomPeer(rng);
    const Bytes trailer = rc4b::TkipTrailer(peer, msdu_);
    rc4b::TkipCaptureStats stats(model_.first_position(), model_.last_position());
    rc4b::sim::TrailerFrameSource source(model_, true, peer, msdu_, trailer,
                                         rng() & 0xffffffff, rng());
    {
      ScopedSpan span(tracer_, "tkip.capture");
      const int64_t t0 = NowNs();
      for (uint64_t i = 0; i < kTkipSamples; ++i) {
        trial.check_ok &= stats.AddFrame(source.NextFrame());
      }
      trial.capture_s = Since(t0);
    }
    const int64_t last_frame = NowNs();
    rc4b::SingleByteTables tables;
    {
      ScopedSpan span(tracer_, "tkip.likelihood");
      rc4b::recovery::TkipTscLikelihoodSource likelihoods(stats, model_);
      tables = likelihoods.Tables();
      trial.likelihood_s = Since(last_frame);
    }
    rc4b::recovery::RecoveryOptions options;
    options.max_candidates = kTkipBudget;
    options.truth = trailer;
    const rc4b::recovery::RecoveryEngine engine(std::move(options));
    int64_t first_call = 0;
    rc4b::recovery::RecoveryResult result;
    {
      ScopedSpan span(tracer_, "recovery.recover");
      const int64_t t0 = NowNs();
      result = engine.RecoverSingle(
          tables, Timed(trial, first_call, [&](const Bytes& candidate) {
            return rc4b::TkipTrailerConsistent(msdu_, candidate);
          }));
      trial.recover_s = Since(t0);
    }
    trial.accept_s = Since(last_frame);
    trial.candidates = result.candidates_tried;
    trial.found = result.found;
    if (result.found) {
      // The verifier accepted it, so the CRC relation must hold; a wrong
      // trailer that satisfies it is a CRC false hit (Sect. 5.4), an attack
      // failure rather than a program error.
      trial.check_ok &= rc4b::TkipTrailerConsistent(msdu_, result.plaintext) &&
                        result.correct == (result.plaintext == trailer);
      trial.recovered = result.plaintext == trailer;
      trial.false_hit = !trial.recovered;
    }
    {
      ScopedSpan span(tracer_, "core.rank");
      const int64_t t0 = NowNs();
      trial.rank_log2 = std::log2(rc4b::IndependentRank(tables, trailer).estimate() + 1);
      trial.rank_s = Since(t0);
    }
    return trial;
  }

  Trial CookieTrial(rc4b::Xoshiro256& rng) {
    Trial trial;
    const auto& alphabet = cookie_->alphabet();
    Bytes truth(kCookieLength);
    for (auto& b : truth) {
      b = alphabet[rng.Below(alphabet.size())];
    }
    // The sampled-capture path draws the request statistics and builds the
    // transition tables in one call, so the accept clock starts before it.
    const int64_t start = NowNs();
    rc4b::DoubleByteTables tables;
    {
      ScopedSpan span(tracer_, "sim.cookie_tables");
      rc4b::sim::SampledCookieLikelihoodSource source(*cookie_, truth,
                                                      kCookieSamples, rng);
      tables = source.Tables();
      trial.likelihood_s = Since(start);
    }
    rc4b::recovery::RecoveryOptions options;
    options.max_candidates = kCookieBudget;
    options.truth = truth;
    const rc4b::recovery::RecoveryEngine engine(std::move(options));
    const auto& opts = cookie_->options();
    int64_t first_call = 0;
    rc4b::recovery::RecoveryResult result;
    {
      ScopedSpan span(tracer_, "recovery.recover");
      const int64_t t0 = NowNs();
      result = engine.RecoverDouble(
          tables, rc4b::recovery::PairBoundary{opts.m1, opts.m_last}, alphabet,
          Timed(trial, first_call,
                [&](const Bytes& candidate) { return candidate == truth; }));
      trial.recover_s = Since(t0);
      if (tracer_ != nullptr) {
        // Without a verifier call the whole recovery was list generation.
        trial.nbest_s = first_call != 0 ? static_cast<double>(first_call - t0) * 1e-9
                                        : trial.recover_s;
      }
    }
    trial.accept_s = Since(start);
    trial.candidates = result.candidates_tried;
    trial.found = result.found;
    trial.recovered = result.found;
    if (result.found) {
      trial.check_ok &= result.plaintext == truth && result.correct;
    }
    return trial;
  }

  uint64_t seed_;
  Tracer* tracer_ = nullptr;
  Bytes msdu_;
  rc4b::TkipTscModel model_;
  std::unique_ptr<rc4b::sim::CookieSimContext> cookie_;
  double model_s_ = 0;
};

double ShareOf(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void RunAttackMix(const RunConfig& config, RunResult& result) {
  AttackMix mix(config.seed);
  std::vector<double> model_times;
  OpLog log(RefKernel::kCore);
  const double setup_s = MedianRefSeconds(3, log.calibrator, [&](int) {
    mix.SetUp();
    model_times.push_back(mix.model_s());
  });

  std::vector<Trial> trials;
  double batch_wall_s = 0;
  uint64_t batch = 0;
  const int64_t start = NowNs();
  std::vector<double> traced_rates;
  std::vector<Trial> traced_trials;
  // Traced runs need at least one traced and one untraced batch.
  while (Since(start) < config.seconds || (result.tracer != nullptr && batch < 2)) {
    Tracer* tracer = batch % 2 == 0 ? result.tracer : nullptr;
    mix.set_tracer(tracer);
    ScopedSpan span(tracer, "sim.batch");
    const Stopwatch watch;
    const std::vector<Trial> done = mix.RunBatch(batch++, kWorkers, span.id());
    if (tracer != nullptr) {
      const double t = watch.wall_s();
      batch_wall_s += t;
      traced_rates.push_back(static_cast<double>(done.size()) / t);
      traced_trials.insert(traced_trials.end(), done.begin(), done.end());
    } else {
      log.Record(static_cast<double>(done.size()), watch);
    }
    for (const Trial& trial : done) {
      result.Check(trial.check_ok, std::string("attack-mix: ") +
                                       (trial.tkip ? "TKIP" : "cookie") +
                                       " trial output check failed");
      ++log.attempted;
      log.succeeded += trial.recovered;
      trials.push_back(trial);
    }
  }

  // Per-family summaries: the operating point must keep both families'
  // failure shares strictly inside (0, 1).
  uint64_t fam_trials[2] = {0, 0};
  uint64_t fam_recovered[2] = {0, 0};
  std::vector<double> fam_latency[2];
  std::vector<double> tkip_ranks;
  uint64_t false_hits = 0;
  for (const Trial& trial : trials) {
    const int f = trial.tkip ? 0 : 1;
    ++fam_trials[f];
    fam_recovered[f] += trial.recovered;
    fam_latency[f].push_back(trial.accept_s);
    if (trial.tkip) {
      tkip_ranks.push_back(trial.rank_log2);
      false_hits += trial.false_hit;
    }
  }
  for (int f = 0; f < 2; ++f) {
    const char* name = f == 0 ? "tkip" : "cookie";
    char note[256];
    std::snprintf(note, sizeof(note),
                  "%s trials %llu recovered %llu accept p50 %.4fs p90 %.4fs%s",
                  name, static_cast<unsigned long long>(fam_trials[f]),
                  static_cast<unsigned long long>(fam_recovered[f]),
                  Median(fam_latency[f]), Percentile(fam_latency[f], 90),
                  HighestSupportedPercentile(fam_trials[f]) >= 90
                      ? ""
                      : " (p90 has fewer than 10 trials beyond it)");
    result.notes.push_back(note);
    const std::string prefix = std::string("attack.") + name;
    result.layer[prefix + "_trials"] = static_cast<double>(fam_trials[f]);
    result.layer[prefix + "_failed_share"] =
        FailedShare(fam_trials[f] - fam_recovered[f], fam_trials[f]);
    result.layer[prefix + "_accept_p50_s"] = Median(fam_latency[f]);
    result.layer[prefix + "_accept_p90_s"] = Percentile(fam_latency[f], 90);
  }

  if (result.tracer != nullptr) {
    double capture = 0, likelihood = 0, cookie_tables = 0, recover = 0;
    double verify = 0, nbest = 0, rank = 0, trial_busy = 0;
    uint64_t frames = 0, tkip_candidates = 0, candidates = 0, accepted = 0;
    double tkip_enumerate = 0;
    for (const Trial& trial : traced_trials) {
      (trial.tkip ? likelihood : cookie_tables) += trial.likelihood_s;
      capture += trial.capture_s;
      recover += trial.recover_s;
      verify += trial.verify_s;
      nbest += trial.nbest_s;
      rank += trial.rank_s;
      trial_busy += trial.trial_s;
      candidates += trial.candidates;
      accepted += trial.found;
      if (trial.tkip) {
        frames += kTkipSamples;
        tkip_candidates += trial.candidates;
        tkip_enumerate += trial.recover_s - trial.verify_s;
      }
    }
    mix.set_tracer(nullptr);
    // Same 8 trials on 4 workers and on 1: the runner's scaling.
    const int64_t t4 = NowNs();
    mix.RunBatch(0, kWorkers, SpanRecord::kNoParent);
    const double s4 = Since(t4);
    const int64_t t1 = NowNs();
    mix.RunBatch(0, 1, SpanRecord::kNoParent);
    const double s1 = Since(t1);
    auto& layer = result.layer;
    layer["tkip.model_busy_s"] = Median(model_times);
    layer["tkip.capture_frames_per_s"] = capture > 0 ? frames / capture : 0.0;
    layer["tkip.likelihood_busy_s"] = likelihood;
    layer["tkip.truth_rank_log2_p50"] = Median(tkip_ranks);
    layer["tkip.false_hits"] = static_cast<double>(false_hits);
    layer["sim.cookie_tables_busy_s"] = cookie_tables;
    layer["sim.trial_busy_s"] = trial_busy;
    layer["sim.scaling_4t"] = s1 / s4;
    layer["sim.worker_idle_share"] = 1.0 - trial_busy / (kWorkers * batch_wall_s);
    layer["core.candidates_per_s"] =
        tkip_enumerate > 0 ? tkip_candidates / tkip_enumerate : 0.0;
    layer["core.nbest_busy_s"] = nbest;
    layer["core.rank_busy_s"] = rank;
    layer["recovery.candidates_tried"] = static_cast<double>(candidates);
    layer["recovery.accepts_per_candidate"] = ShareOf(accepted, candidates);
    layer["recovery.verify_busy_s"] = verify;
    layer["recovery.traverse_self_s"] = recover - verify - nbest;
    layer["trace.overhead_share"] = 1.0 - Median(traced_rates) / Median(log.rates);
  }
  log.Fill(result, setup_s);
}

}  // namespace perfbench
