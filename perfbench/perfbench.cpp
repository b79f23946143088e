// perfbench: end-to-end serve + retrain benchmark of libLFO.
//
//   perfbench --workload <serve_model|retrain_window> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints one JSON object on its last stdout line: correctness, attempted
// and failed operation counts, the metrics of the run and a fingerprint
// of its deterministic results. run.py builds this binary, runs it and
// turns that line into the benchmark's result. Workloads, metrics and
// the layer map are documented in README.md next to this file.
//
// Untraced runs (--trace 0) time only the production path. Traced runs
// (--trace 1) time calls into each layer's public functions from here,
// on replicas fed the same inputs, so no span lives inside the library.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/rollout.hpp"
#include "core/windowed.hpp"
#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "gbdt/gbdt.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "opt/opt.hpp"
#include "server/server.hpp"
#include "server/sharded_cache.hpp"
#include "trace/generator.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;
using Clock = std::chrono::steady_clock;

// Shapes shared by every workload (README.md, "Workloads").
constexpr std::size_t kWindow = 50000;        // training window, requests
constexpr std::size_t kFrame = 16384;  // requests per wire frame; README.md: why
constexpr std::size_t kServePrefix = 2 * kWindow;   // trained on + warm-up
constexpr std::size_t kServeTimed = 1u << 21;       // scored timed slice
constexpr std::size_t kRetrainWindows = 6;
constexpr std::uint32_t kShards = 8;
constexpr double kCacheFraction = 0.05;
constexpr std::uint64_t kCatalogSeed = 1;
constexpr std::size_t kEngineRows = 16384;    // rows per engine timing
constexpr int kServeSetups = 3;               // setup_s = median of these
constexpr int kRetrainSetups = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Cost of one steady_clock read, median of five blocks of back-to-back
// reads; subtracted from intervals timed per call.
double clock_read_ns() {
  constexpr int kReads = 20000;
  std::vector<double> blocks;
  for (int block = 0; block < 5; ++block) {
    const auto a = Clock::now();
    auto last = a;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    blocks.push_back(ns_between(a, last) / kReads);
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks[2];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// The repeated timings of each position of a sequence (frame positions of
// the timed slice, window positions of a windowed run) reduced to one
// median per position. A host interruption lands on one repetition of a
// position, not on its median, so tail quantiles of these are the
// program's, not the host's (README.md, "Workloads").
struct PositionMedians {
  std::vector<double> median;  // positions timed at least once
  std::size_t min_passes = 0;  // fewest timings behind one median
};

PositionMedians position_medians(
    const std::vector<std::vector<double>>& positions) {
  PositionMedians out;
  for (const auto& times : positions) {
    if (times.empty()) continue;
    out.min_passes = out.median.empty()
                         ? times.size()
                         : std::min(out.min_passes, times.size());
    out.median.push_back(median(times));
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t evictions_counter() {
  return obs::MetricsRegistry::instance()
      .counter("lfo_cache_evictions_total")
      .value();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

// The run's result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> fingerprint;
  std::vector<std::string> errors;
  // Sample count behind each timing statistic.
  std::vector<std::pair<std::string, std::size_t>> samples;
  // The rate trace_overhead compares against untraced runs.
  std::string rate_name;
  double rate = 0.0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
    std::cerr << "perfbench: CHECK FAILED: " << why << '\n';
  }
  void print() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      os << (i ? ", " : "") << '"' << metrics[i].first << "\": {\"value\": "
         << metrics[i].second.first << ", \"unit\": \""
         << metrics[i].second.second << "\"}";
    }
    os << "}, \"fingerprint\": {";
    for (std::size_t i = 0; i < fingerprint.size(); ++i) {
      os << (i ? ", " : "") << '"' << fingerprint[i].first
         << "\": " << fingerprint[i].second;
    }
    os << "}, \"samples\": {";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      os << (i ? ", " : "") << '"' << samples[i].first
         << "\": " << samples[i].second;
    }
    os << "}, \"rate\": {\"name\": \"" << rate_name << "\", \"value\": "
       << rate << "}, \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      os << (i ? ", " : "") << '"' << json_escape(errors[i]) << '"';
    }
    os << "]}";
    std::cout << os.str() << std::endl;
  }
};

// ---------------------------------------------------------------- inputs

// The standard production-mix trace: four content classes at 5% catalog
// scale, 5% of popularity ranks reshuffled every 1/8 of the trace. Its
// generator seed is fixed; the workload seed only orders requests
// (reorder below).
trace::GeneratorConfig standard_config(std::uint64_t requests) {
  trace::GeneratorConfig config;
  config.num_requests = requests;
  config.seed = kCatalogSeed;
  config.classes = trace::production_mix(0.05);
  config.drift.reshuffle_interval = requests / 8 + 1;
  config.drift.reshuffle_fraction = 0.05;
  return config;
}

// The workload seed draws the request order. The generator fixes the
// catalog (sizes, popularity ranks and their reshuffles) from its own
// seed, and between two reshuffles it draws every request independently
// from one popularity distribution, so any order of the requests inside
// such a segment is an equally likely draw of the same stream. Each
// segment's requests are put in a seed-chosen order. Drawing a new
// catalog per seed instead makes the byte hit ratio a lottery on the
// sizes of the few hot downloads (README.md, "Seeds").
trace::Trace reorder(const trace::Trace& t, const trace::GeneratorConfig& base,
                     std::uint64_t seed) {
  const std::size_t segment = base.drift.reshuffle_interval;
  std::vector<trace::Request> requests = t.requests();
  util::Rng rng(seed);
  for (std::size_t begin = 0; begin < requests.size(); begin += segment) {
    const std::size_t end = std::min(requests.size(), begin + segment);
    for (std::size_t k = end - begin; k > 1; --k) {
      std::swap(requests[begin + k - 1], requests[begin + rng.uniform(k)]);
    }
  }
  return trace::Trace(std::move(requests));
}

std::uint64_t cache_bytes(std::uint64_t unique_bytes) {
  return static_cast<std::uint64_t>(static_cast<double>(unique_bytes) *
                                    kCacheFraction);
}

core::LfoConfig lfo_config(std::uint64_t cache_size) {
  core::LfoConfig config;
  config.set_cache_size(cache_size);
  return config;
}

server::ShardedCacheConfig shard_config(std::uint64_t cache_size) {
  server::ShardedCacheConfig config;
  config.capacity = cache_size;
  config.num_shards = kShards;
  return config;
}

// The rollout guard's view of a freshly trained model, as the windowed
// pipeline builds it for a candidate with no serving predecessor.
core::RolloutCandidate candidate_of(const util::BinaryConfusion& confusion) {
  core::RolloutCandidate candidate;
  candidate.train_accuracy = confusion.accuracy();
  const auto total = static_cast<double>(confusion.total());
  candidate.model_admit_share =
      ratio(static_cast<double>(confusion.tp() + confusion.fp()), total);
  candidate.opt_admit_share =
      ratio(static_cast<double>(confusion.tp() + confusion.fn()), total);
  return candidate;
}

std::string booster_text(const core::LfoModel& model) {
  std::ostringstream os;
  model.booster().save(os);
  return os.str();
}

// ---------------------------------------------------------- train ledger

// Runs the stages of one training job (train_on_window's body, then the
// windowed pipeline's serving-model evaluation and rollout verdict) one
// call at a time, and the whole train_on_window once more, on each
// window it is given.
class TrainLedger {
 public:
  explicit TrainLedger(core::LfoConfig config)
      : config_(std::move(config)), guard_(core::RolloutConfig{}) {}

  void window(std::span<const trace::Request> window, Report& report) {
    opt::OptConfig opt_config = config_.opt;
    opt_config.cache_size = config_.cache_size;
    features::DatasetBuildOptions build;
    build.features = config_.features;
    build.cache_size = config_.cache_size;

    const auto t0 = Clock::now();
    const auto labels = opt::compute_opt(window, opt_config);
    const auto t1 = Clock::now();
    const auto dataset = features::build_dataset(window, labels, build);
    const auto t2 = Clock::now();
    auto summary = std::make_shared<const obs::FeatureSummary>(
        obs::summarize_rows(dataset.features_matrix(),
                            dataset.num_features()));
    const auto t3 = Clock::now();
    auto booster = gbdt::train(dataset, config_.gbdt);
    const auto t4 = Clock::now();
    const auto confusion =
        gbdt::confusion(booster, dataset, config_.cutoff);
    const auto t5 = Clock::now();
    auto model = std::make_shared<const core::LfoModel>(std::move(booster),
                                                        config_.features);
    const auto t6 = Clock::now();
    opt_s_ += seconds_between(t0, t1);
    dataset_s_ += seconds_between(t1, t2);
    summary_s_ += seconds_between(t2, t3);
    fit_s_ += seconds_between(t3, t4);
    confusion_s_ += seconds_between(t4, t5);
    compile_s_ += seconds_between(t5, t6);

    core::RolloutCandidate candidate = candidate_of(confusion);
    if (serving_) {
      const auto a = Clock::now();
      const auto served = core::evaluate_predictions(
          *serving_, window, labels, config_.cache_size, config_.cutoff);
      eval_s_ += seconds_between(a, Clock::now());
      ++evals_;
      candidate.serving_accuracy = served.accuracy();
      candidate.feature_drift =
          obs::feature_drift(*serving_summary_, *summary).mean_score;
    }
    const auto a = Clock::now();
    const auto verdict = guard_.evaluate(candidate);
    rollout_s_ += seconds_between(a, Clock::now());

    const auto b = Clock::now();
    const auto job = core::train_on_window(window, config_);
    job_s_ += seconds_between(b, Clock::now());
    if (booster_text(*job.model) != booster_text(*model)) {
      report.fail("train ledger: staged training and train_on_window "
                  "produced different models on window " +
                  std::to_string(windows_));
    }

    rows_ += dataset.num_rows();
    admit_share_sum_ +=
        ratio(static_cast<double>(std::count(labels.cached.begin(),
                                             labels.cached.end(), 1)),
              static_cast<double>(labels.cached.size()));
    if (windows_ == 0) {
      first_model_ = model;
      first_candidate_ = candidate;
    }
    if (verdict.activate) {
      serving_ = model;
      serving_summary_ = summary;
    }
    ++windows_;
  }

  // The model trained on the first window and its candidate record.
  std::shared_ptr<const core::LfoModel> first_model() const {
    return first_model_;
  }
  const core::RolloutCandidate& first_candidate() const {
    return first_candidate_;
  }

  void emit(Report& report) const {
    const double n = static_cast<double>(std::max<std::size_t>(1, windows_));
    const double stages = opt_s_ + dataset_s_ + summary_s_ + fit_s_ +
                          confusion_s_ + compile_s_ + eval_s_ + rollout_s_;
    const double whole = job_s_ + eval_s_;
    const double gap = ratio(std::fabs(stages - whole), whole);
    // A timing closure, not a correctness property: flagged, not failed.
    if (gap > 0.10) {
      std::cerr << "perfbench: FLAG: train ledger stages sum to " << stages
                << " s against " << whole
                << " s for the whole job (gap above 10%)\n";
    }
    report.metric("opt.label_s", opt_s_ / n, "s");
    report.metric("features.dataset_s", dataset_s_ / n, "s");
    report.metric("obs.summary_s", summary_s_ / n, "s");
    report.metric("gbdt.fit_s", fit_s_ / n, "s");
    report.metric("gbdt.fit_rows_per_s",
                  ratio(static_cast<double>(rows_), fit_s_), "1/s");
    report.metric("gbdt.confusion_s", confusion_s_ / n, "s");
    report.metric("core.compile_ms", 1e3 * compile_s_ / n, "ms");
    report.metric("core.eval_s",
                  eval_s_ / static_cast<double>(std::max<std::size_t>(1, evals_)),
                  "s");
    report.metric("core.rollout_us", 1e6 * rollout_s_ / n, "us");
    report.metric("core.train_job_s", job_s_ / n, "s");
    report.metric("core.ledger_gap", gap, "ratio");
    report.metric("gbdt.rows", static_cast<double>(rows_), "count");
    report.metric("opt.admit_share", admit_share_sum_ / n, "ratio");
  }

 private:
  core::LfoConfig config_;
  core::RolloutGuard guard_;
  std::shared_ptr<const core::LfoModel> serving_;
  std::shared_ptr<const obs::FeatureSummary> serving_summary_;
  std::shared_ptr<const core::LfoModel> first_model_;
  core::RolloutCandidate first_candidate_;
  std::size_t windows_ = 0;
  std::size_t evals_ = 0;  // windows with a serving model to evaluate
  std::uint64_t rows_ = 0;
  double admit_share_sum_ = 0.0;
  double opt_s_ = 0.0, dataset_s_ = 0.0, summary_s_ = 0.0, fit_s_ = 0.0,
         confusion_s_ = 0.0, compile_s_ = 0.0, eval_s_ = 0.0,
         rollout_s_ = 0.0, job_s_ = 0.0;
};

// ------------------------------------------------------------ serve path

// Client-side tally of wire decisions.
struct WireTally {
  std::uint64_t requests = 0, hits = 0;
  std::uint64_t bytes = 0, hit_bytes = 0;

  void add(std::span<const trace::Request> batch,
           const std::vector<server::WireDecision>& decisions) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++requests;
      bytes += batch[i].size;
      if (decisions[i] == server::WireDecision::kHit) {
        ++hits;
        hit_bytes += batch[i].size;
      }
    }
  }
  double bhr() const {
    return ratio(static_cast<double>(hit_bytes), static_cast<double>(bytes));
  }
  double ohr() const {
    return ratio(static_cast<double>(hits), static_cast<double>(requests));
  }
};

// A running server with one connected closed-loop client, its model
// installed and its cache warmed on trace[0, warm_end).
struct ServeSetup {
  trace::Trace trace;
  std::uint64_t cache_size = 0;
  std::shared_ptr<const core::LfoModel> model;
  core::RolloutCandidate candidate;
  std::uint64_t activated = 0, rejected = 0, fallbacks = 0;
  std::unique_ptr<server::LfoServer> server;
  std::unique_ptr<server::LfoClient> client;
  WireTally warm;
};

void start_serving(ServeSetup& s, std::size_t warm_end, Report& report) {
  server::LfoServerConfig config;
  config.workers = 1;
  config.telemetry = false;
  config.cache = shard_config(s.cache_size);
  s.server = std::make_unique<server::LfoServer>(config);
  if (!s.server->start()) {
    throw std::runtime_error("server start failed: " +
                             s.server->last_error());
  }
  const auto verdict =
      s.server->cache().install_candidate(s.candidate, s.model);
  s.activated += verdict.activate ? 1 : 0;
  s.rejected += verdict.activate ? 0 : 1;
  s.fallbacks += verdict.clear_model ? 1 : 0;
  if (!verdict.activate || !s.server->cache().has_model()) {
    report.fail("install_candidate did not activate the model: " +
                verdict.reason);
  }
  s.client = std::make_unique<server::LfoClient>();
  if (!s.client->connect(s.server->port())) {
    throw std::runtime_error("client connect failed");
  }
  std::vector<server::WireDecision> decisions;
  for (std::size_t pos = 0; pos < warm_end; pos += kFrame) {
    const auto batch =
        s.trace.window(pos, std::min(kFrame, warm_end - pos));
    if (!s.client->exchange(batch, decisions)) {
      throw std::runtime_error("warm-up exchange failed");
    }
    s.warm.add(batch, decisions);
  }
}

// Workload set-up: inputs, initial training and install, warm-up.
std::unique_ptr<ServeSetup> setup_serve(std::uint64_t seed, Report& report) {
  auto s = std::make_unique<ServeSetup>();
  const auto base = standard_config(kServePrefix + kServeTimed);
  s->trace = reorder(trace::generate_trace(base), base, seed);
  s->cache_size = cache_bytes(s->trace.unique_bytes());
  const auto trained = core::train_on_window(s->trace.window(0, kWindow),
                                             lfo_config(s->cache_size));
  s->model = trained.model;
  s->candidate = candidate_of(trained.train_confusion);
  start_serving(*s, kServePrefix, report);
  return s;
}

// Cache-layer counts over a stretch of requests.
struct CacheCounts {
  std::uint64_t requests = 0, hits = 0, bypassed = 0, evictions = 0,
                demoted = 0;
};

void emit_cache_counts(Report& report, const CacheCounts& c) {
  const double requests = static_cast<double>(c.requests);
  report.metric("core.hit_ratio", ratio(static_cast<double>(c.hits), requests),
                "ratio");
  report.metric("core.bypass_ratio",
                ratio(static_cast<double>(c.bypassed), requests), "ratio");
  report.metric("core.evictions_per_req",
                ratio(static_cast<double>(c.evictions), requests), "ratio");
  report.metric("core.demoted_hits", static_cast<double>(c.demoted), "count");
}

// In-process copies of the server's cache, fed the frames the server
// answered, with every layer call timed from outside: a ShardedLfoCache
// (shard routing + lock + cache), one core::LfoCache per shard routed by
// ShardedLfoCache::shard_of, and next to each a shadow FeatureExtractor
// that sees what the cache's own extractor sees. The installed model's
// inference is timed on the shadows' rows.
class Replica {
 public:
  explicit Replica(const ServeSetup& s)
      : sharded_(shard_config(s.cache_size)),
        model_(s.model),
        clock_ns_(clock_read_ns()) {
    const auto config = shard_config(s.cache_size);
    for (std::uint32_t i = 0; i < kShards; ++i) {
      caches_.push_back(std::make_unique<core::LfoCache>(
          s.cache_size / kShards, config.features, config.cutoff,
          config.options));
      shadows_.emplace_back(config.features);
    }
    row_.resize(shadows_.front().dimension());
    sharded_.install_candidate(s.candidate, s.model);
    for (auto& cache : caches_) cache->swap_model(s.model);
  }

  // Untimed replay of the warm-up slice.
  void warm(std::span<const trace::Request> batch) {
    for (const auto& r : batch) {
      sharded_.access(r);
      const auto shard = sharded_.shard_of(r.object);
      caches_[shard]->access(r);
      shadows_[shard].observe(r, caches_[shard]->clock());
    }
  }

  void replay(std::span<const trace::Request> batch,
              const std::vector<server::WireDecision>& wire) {
    results_.resize(batch.size());
    const auto a = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      results_[i] = sharded_.access(batch[i]);
    }
    shard_ns_ += ns_between(a, Clock::now());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto expect = results_[i].expired ? server::WireDecision::kExpired
                          : results_[i].hit   ? server::WireDecision::kHit
                                              : server::WireDecision::kMiss;
      if (wire[i] != expect) ++mismatches_;
    }
    const std::uint64_t evictions_before = evictions_counter();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto& r = batch[i];
      const auto shard = sharded_.shard_of(r.object);
      auto& cache = *caches_[shard];
      auto& shadow = shadows_[shard];
      const auto t0 = Clock::now();
      shadow.extract(r, cache.clock() + 1, cache.free_bytes(), row_,
                     scratch_);
      const auto t1 = Clock::now();
      const double score = model_->predict(row_, scratch_);
      const auto t2 = Clock::now();
      const bool hit = cache.access(r);
      const auto t3 = Clock::now();
      shadow.observe(r, cache.clock());
      extract_ns_ += ns_between(t0, t1);
      predict_ns_ += ns_between(t1, t2);
      access_ns_ += ns_between(t2, t3);
      if (hit != (wire[i] == server::WireDecision::kHit)) ++mismatches_;
      if (scores_.size() < kEngineRows) {
        rows_.insert(rows_.end(), row_.begin(), row_.end());
        scores_.push_back(score);
      }
      ++requests_;
    }
    evictions_ += evictions_counter() - evictions_before;
  }

  // The per-shard caches' counters summed; the replayed requests' share
  // is the difference of two snapshots.
  CacheCounts counters() const {
    CacheCounts c;
    for (const auto& cache : caches_) {
      c.requests += cache->stats().requests;
      c.hits += cache->stats().hits;
      c.bypassed += cache->bypassed();
      c.demoted += cache->demoted_hits();
    }
    c.evictions = evictions_;
    return c;
  }

  // Per-call inference time of one engine over the captured real rows,
  // median of three passes. Every engine must reproduce the serving
  // engine's scores bit for bit (the engines' contract).
  double engine_ns(core::LfoModel::Engine engine, Report& report) const {
    core::LfoModel model(model_->booster(), model_->feature_config());
    model.set_engine(engine);
    features::FeatureScratch scratch;
    const std::size_t dim = row_.size();
    const std::size_t n = scores_.size();
    std::vector<double> scores(n);
    std::vector<double> passes;
    for (int pass = 0; pass < 3; ++pass) {
      const auto a = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        scores[i] = model.predict(
            std::span<const float>(rows_.data() + i * dim, dim), scratch);
      }
      passes.push_back(ns_between(a, Clock::now()) /
                       static_cast<double>(std::max<std::size_t>(1, n)));
    }
    if (scores != scores_) {
      report.fail("inference engines disagree on the scores of real rows");
    }
    return median(passes);
  }

  std::uint64_t mismatches() const { return mismatches_; }

  void emit(Report& report, double frame_ns, std::uint64_t frames,
            std::uint64_t failed_exchanges) const {
    const double n = static_cast<double>(std::max<std::uint64_t>(1, requests_));
    // Each per-request interval holds one clock read; the shard replay
    // is timed per frame.
    const double extract = extract_ns_ / n - clock_ns_;
    const double predict = predict_ns_ / n - clock_ns_;
    const double access = access_ns_ / n - clock_ns_;
    const double shard = shard_ns_ / n;
    report.metric("features.extract_ns", extract, "ns");
    report.metric("gbdt.predict_ns", predict, "ns");
    report.metric("gbdt.predict_ns.tree_walk",
                  engine_ns(core::LfoModel::Engine::kTreeWalk, report), "ns");
    report.metric("gbdt.predict_ns.flat",
                  engine_ns(core::LfoModel::Engine::kFlatForest, report),
                  "ns");
    report.metric("gbdt.predict_ns.quantized",
                  engine_ns(core::LfoModel::Engine::kFlatQuantized, report),
                  "ns");
    report.metric("core.cache_access_ns", access, "ns");
    report.metric("core.rank_self_ns", access - extract - predict, "ns");
    report.metric("server.shard_access_ns", shard, "ns");
    report.metric("server.lock_hash_ns", shard - access, "ns");
    report.metric("server.wire_ns_per_req", frame_ns / n - shard, "ns");
    report.metric("server.frames", static_cast<double>(frames), "count");
    report.metric("server.failed_exchanges",
                  static_cast<double>(failed_exchanges), "count");
    report.metric("core.replica_mismatches",
                  static_cast<double>(mismatches_), "count");
  }

 private:
  server::ShardedLfoCache sharded_;
  std::shared_ptr<const core::LfoModel> model_;
  double clock_ns_;
  std::vector<server::AccessResult> results_;
  std::vector<std::unique_ptr<core::LfoCache>> caches_;
  std::vector<features::FeatureExtractor> shadows_;
  std::vector<float> row_;
  features::FeatureScratch scratch_;
  std::vector<float> rows_;     // first kEngineRows extracted rows
  std::vector<double> scores_;  // their scores from the serving engine
  double extract_ns_ = 0.0, predict_ns_ = 0.0, access_ns_ = 0.0,
         shard_ns_ = 0.0;
  std::uint64_t requests_ = 0, evictions_ = 0, mismatches_ = 0;
};

struct ServeRun {
  // Round trips of each frame position of the timed slice, one per pass.
  std::vector<std::vector<double>> position_us;
  std::uint64_t frames = 0;
  std::uint64_t attempted = 0, answered = 0, failed_exchanges = 0;
  WireTally scored;  // first pass over the timed slice: bhr / ohr
  WireTally all;
  double wall_s = 0.0;
  double socket_ns = 0.0;
};

// Closed loop over trace[begin, end) in frames, wrapping around, until
// `seconds` have passed and the slice has been served once in full.
ServeRun serve_timed(ServeSetup& s, std::size_t begin, std::size_t end,
                     double seconds, Replica* replica) {
  ServeRun run;
  const std::size_t positions = (end - begin + kFrame - 1) / kFrame;
  run.position_us.resize(positions);
  std::vector<server::WireDecision> decisions;
  std::size_t pos = begin;
  bool first_pass = true;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (true) {
    const std::size_t len = std::min(kFrame, end - pos);
    const auto batch = s.trace.window(pos, len);
    const auto a = Clock::now();
    const bool ok = s.client->exchange(batch, decisions);
    const auto b = Clock::now();
    run.attempted += len;
    if (ok) {
      run.answered += len;
      ++run.frames;
      run.position_us[(pos - begin) / kFrame].push_back(ns_between(a, b) *
                                                         1e-3);
      run.socket_ns += ns_between(a, b);
      run.all.add(batch, decisions);
      if (first_pass) run.scored.add(batch, decisions);
      if (replica != nullptr) replica->replay(batch, decisions);
    } else {
      ++run.failed_exchanges;
      s.client = std::make_unique<server::LfoClient>();
      if (!s.client->connect(s.server->port())) {
        throw std::runtime_error("client reconnect failed");
      }
    }
    pos += len;
    if (pos == end) {
      pos = begin;
      first_pass = false;
    }
    if (!first_pass && Clock::now() >= deadline) break;
  }
  run.wall_s = seconds_between(start, Clock::now());
  return run;
}

// Prediction error (paper Fig 5) of the installed model on the first
// timed window, against OPT's labels for that window.
double serve_prediction_error(const ServeSetup& s) {
  const auto window = s.trace.window(kServePrefix, kWindow);
  const auto config = lfo_config(s.cache_size);
  const auto labels = opt::compute_opt(window, config.opt);
  return 1.0 - core::evaluate_predictions(*s.model, window, labels,
                                          s.cache_size, config.cutoff)
                   .accuracy();
}

// The server's own merged stats must equal what the client saw.
void check_server_stats(const ServeSetup& s, const ServeRun& run,
                        Report& report) {
  const auto stats = s.server->cache().stats();
  const auto requests = s.warm.requests + run.all.requests;
  const auto hits = s.warm.hits + run.all.hits;
  if (stats.requests != requests || stats.hits != hits) {
    report.fail("server stats (" + std::to_string(stats.requests) + " req, " +
                std::to_string(stats.hits) + " hits) disagree with the wire (" +
                std::to_string(requests) + " req, " + std::to_string(hits) +
                " hits)");
  }
}

void serve_untraced(std::uint64_t seed, double seconds, Report& report) {
  std::vector<double> setups;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < kServeSetups; ++i) {
    s.reset();
    const auto a = Clock::now();
    s = setup_serve(seed, report);
    setups.push_back(seconds_between(a, Clock::now()));
  }
  const auto run = serve_timed(*s, kServePrefix, s->trace.size(), seconds,
                               nullptr);
  check_server_stats(*s, run, report);
  report.attempted = run.attempted;
  report.failed = run.attempted - run.answered;
  const auto positions = position_medians(run.position_us);
  report.rate_name = "reqs_per_s";
  report.rate = ratio(static_cast<double>(run.answered), run.wall_s);
  const double pred_error = serve_prediction_error(*s);
  report.metric("setup_s", median(setups), "s");
  report.metric("reqs_per_s", report.rate, "1/s");
  report.metric("frame_p50_us", quantile(positions.median, 0.50), "us");
  report.metric("frame_p99_us", quantile(positions.median, 0.99), "us");
  // No windows close while serving: the time per kWindow requests, a copy
  // of reqs_per_s (a median of per-window times spread more, README.md).
  report.metric("window_s", ratio(static_cast<double>(kWindow), report.rate),
                "s");
  report.metric("bhr", run.scored.bhr(), "ratio");
  report.metric("ohr", run.scored.ohr(), "ratio");
  report.metric("pred_error", pred_error, "ratio");
  report.metric("ok_frac",
                ratio(static_cast<double>(run.answered),
                      static_cast<double>(run.attempted)),
                "ratio");
  report.metric("rss_mb", peak_rss_mib(), "MiB");
  report.samples = {{"setup", setups.size()},
                    {"frame", run.frames},
                    {"frame_position", positions.median.size()},
                    {"passes_per_position", positions.min_passes}};
  report.fingerprint = {{"bhr", run.scored.bhr()},
                        {"ohr", run.scored.ohr()},
                        {"pred_error", pred_error}};
}

// Traced serve: the same closed loop, each answered frame replayed into
// a Replica. Returns the run and the replica's cache counts over the
// timed requests.
std::pair<ServeRun, CacheCounts> serve_traced_loop(
    ServeSetup& s, std::size_t begin, std::size_t end, double seconds,
    Report& report) {
  Replica replica(s);
  for (std::size_t pos = 0; pos < begin; pos += kFrame) {
    replica.warm(s.trace.window(pos, std::min(kFrame, begin - pos)));
  }
  const auto before = replica.counters();
  auto run = serve_timed(s, begin, end, seconds, &replica);
  check_server_stats(s, run, report);
  if (replica.mismatches() != 0) {
    report.fail(std::to_string(replica.mismatches()) +
                " wire decisions differ from the in-process replica");
  }
  replica.emit(report, run.socket_ns, run.frames,
               run.failed_exchanges);
  const auto after = replica.counters();
  const CacheCounts timed{after.requests - before.requests,
                          after.hits - before.hits,
                          after.bypassed - before.bypassed,
                          after.evictions - before.evictions,
                          after.demoted - before.demoted};
  return {std::move(run), timed};
}

// The traced serve run serves the timed slice exactly once, so its
// counts are deterministic.
void serve_traced(std::uint64_t seed, Report& report) {
  auto s = setup_serve(seed, report);
  TrainLedger ledger(lfo_config(s->cache_size));
  ledger.window(s->trace.window(0, kWindow), report);
  ledger.window(s->trace.window(kWindow, kWindow), report);
  ledger.emit(report);
  if (booster_text(*ledger.first_model()) != booster_text(*s->model)) {
    report.fail("prefix model differs between set-up and the train ledger");
  }
  const auto [run, counts] =
      serve_traced_loop(*s, kServePrefix, s->trace.size(), 0.0, report);
  emit_cache_counts(report, counts);
  report.attempted = run.attempted;
  report.failed = run.attempted - run.answered;
  // trace_overhead compares the socket-only rate with untraced runs.
  report.rate_name = "reqs_per_s";
  report.rate = ratio(static_cast<double>(run.answered), run.socket_ns * 1e-9);
  report.metric("core.activated", static_cast<double>(s->activated), "count");
  report.metric("core.rejected", static_cast<double>(s->rejected), "count");
  report.metric("core.fallbacks", static_cast<double>(s->fallbacks), "count");
  report.fingerprint = {{"bhr", run.scored.bhr()},
                        {"ohr", run.scored.ohr()},
                        {"pred_error", serve_prediction_error(*s)}};
}

// ---------------------------------------------------------- retrain path

struct RetrainSetup {
  trace::Trace trace;
  core::WindowedConfig config;
};

RetrainSetup setup_retrain(std::uint64_t seed) {
  RetrainSetup s;
  const auto base = standard_config(kRetrainWindows * kWindow);
  s.trace = reorder(trace::generate_trace(base), base, seed);
  s.config.lfo = lfo_config(cache_bytes(s.trace.unique_bytes()));
  s.config.window_size = kWindow;
  return s;
}

double mean_prediction_error(const core::WindowedResult& r) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& w : r.windows) {
    if (w.prediction_error >= 0.0) {
      sum += w.prediction_error;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

// Set-up of the untraced run: the inputs, then one training job on the
// first window as warm-up, so that set-up time is long enough to repeat
// (trace generation alone takes ~0.05 s).
void retrain_untraced(std::uint64_t seed, double seconds, Report& report) {
  std::vector<double> setups;
  RetrainSetup s;
  for (int i = 0; i < kRetrainSetups; ++i) {
    const auto a = Clock::now();
    s = setup_retrain(seed);
    core::train_on_window(s.trace.window(0, kWindow), s.config.lfo);
    setups.push_back(seconds_between(a, Clock::now()));
  }
  std::vector<Clock::time_point> stamps;
  stamps.reserve(kRetrainWindows);
  s.config.window_hook = [&stamps](const core::WindowReport&) {
    stamps.push_back(Clock::now());
  };
  std::vector<double> window_s;
  std::vector<std::vector<double>> position_us;  // per window position
  core::WindowedResult first;
  std::uint64_t jobs = 0, failed_jobs = 0, requests = 0;
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    const auto rep_start = Clock::now();
    stamps.clear();
    auto result = core::run_windowed_lfo(s.trace, s.config);
    if (position_us.size() < stamps.size()) position_us.resize(stamps.size());
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      window_s.push_back(seconds_between(stamps[i - 1], stamps[i]));
      position_us[i].push_back(window_s.back() * 1e6);
    }
    for (const auto& w : result.windows) {
      ++jobs;
      failed_jobs += w.rollout.train_failed ? 1 : 0;
    }
    requests += s.trace.size();
    if (rep == 0) {
      first = std::move(result);
    } else if (!core::same_decisions(first, result)) {
      report.fail("run_windowed_lfo repetition " + std::to_string(rep) +
                  " made different decisions than the first");
    }
    // Start another repetition only if it should end by the deadline
    // plus half a repetition.
    const auto now = Clock::now();
    if (seconds_between(start, now) + 0.5 * seconds_between(rep_start, now) >=
        seconds) {
      break;
    }
  }
  const double wall_s = seconds_between(start, Clock::now());
  const double pred_error = mean_prediction_error(first);
  report.attempted = jobs;
  report.failed = failed_jobs;
  report.rate_name = "window_s";
  report.rate = median(window_s);
  const auto positions = position_medians(position_us);
  report.metric("setup_s", median(setups), "s");
  // The retrain path answers a window at a time: its request rate and its
  // "frame" latencies are those of whole windows (README.md).
  report.metric("reqs_per_s", ratio(static_cast<double>(requests), wall_s),
                "1/s");
  report.metric("frame_p50_us", quantile(positions.median, 0.50), "us");
  report.metric("frame_p99_us", quantile(positions.median, 0.99), "us");
  report.metric("window_s", report.rate, "s");
  report.metric("bhr", first.overall.bhr(), "ratio");
  report.metric("ohr", first.overall.ohr(), "ratio");
  report.metric("pred_error", pred_error, "ratio");
  report.metric("ok_frac",
                ratio(static_cast<double>(jobs - failed_jobs),
                      static_cast<double>(jobs)),
                "ratio");
  report.metric("rss_mb", peak_rss_mib(), "MiB");
  report.samples = {{"setup", setups.size()},
                    {"window", window_s.size()},
                    {"window_position", positions.median.size()},
                    {"passes_per_position", positions.min_passes}};
  report.fingerprint = {{"bhr", first.overall.bhr()},
                        {"ohr", first.overall.ohr()},
                        {"pred_error", pred_error}};
}

// Traced retrain: the same windowed run with the train ledger run on each
// window from window_hook (its time is taken out of window_s), then the
// serve layers probed with the model of the first window, served over the
// last windows exactly as serve_model serves its trace.
void retrain_traced(std::uint64_t seed, Report& report) {
  RetrainSetup s = setup_retrain(seed);
  TrainLedger ledger(s.config.lfo);
  std::vector<Clock::time_point> stamps;
  std::vector<double> hook_s;
  s.config.window_hook = [&](const core::WindowReport& w) {
    stamps.push_back(Clock::now());
    const auto a = Clock::now();
    ledger.window(s.trace.window(w.begin, w.length), report);
    hook_s.push_back(seconds_between(a, Clock::now()));
  };
  const std::uint64_t evictions_before = evictions_counter();
  const auto result = core::run_windowed_lfo(s.trace, s.config);
  const std::uint64_t evictions = evictions_counter() - evictions_before;
  std::vector<double> window_s;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    window_s.push_back(seconds_between(stamps[i - 1], stamps[i]) -
                       hook_s[i - 1]);
  }
  ledger.emit(report);

  ServeSetup probe;
  probe.trace = s.trace;
  probe.cache_size = s.config.lfo.cache_size;
  probe.model = ledger.first_model();
  probe.candidate = ledger.first_candidate();
  start_serving(probe, kServePrefix, report);
  // seconds = 0: one pass over the slice. The core.* counts come from
  // the windowed run's cache, not from this probe.
  serve_traced_loop(probe, kServePrefix, probe.trace.size(), 0.0, report);
  emit_cache_counts(report, {result.overall.requests, result.overall.hits,
                             result.bypassed, evictions,
                             result.demoted_hits});
  std::uint64_t activated = 0, rejected = 0, fallbacks = 0, failed = 0;
  for (const auto& w : result.windows) {
    using D = core::RolloutDecision;
    activated += (w.rollout.decision == D::kActivated ||
                  w.rollout.decision == D::kRecovered);
    rejected += (w.rollout.decision == D::kRejected ||
                 w.rollout.decision == D::kFallback);
    fallbacks += w.rollout.decision == D::kFallback;
    failed += w.rollout.train_failed;
  }
  report.metric("core.activated", static_cast<double>(activated), "count");
  report.metric("core.rejected", static_cast<double>(rejected), "count");
  report.metric("core.fallbacks", static_cast<double>(fallbacks), "count");
  report.attempted = result.windows.size();
  report.failed = failed;
  report.rate_name = "window_s";
  report.rate = median(window_s);
  const double pred_error = mean_prediction_error(result);
  report.fingerprint = {{"bhr", result.overall.bhr()},
                        {"ohr", result.overall.ohr()},
                        {"pred_error", pred_error}};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 != 1) throw std::invalid_argument("options take one value");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Report report;
    if (args.workload == "serve_model") {
      if (args.trace) {
        serve_traced(args.seed, report);
      } else {
        serve_untraced(args.seed, args.seconds, report);
      }
    } else if (args.workload == "retrain_window") {
      if (args.trace) {
        retrain_traced(args.seed, report);
      } else {
        retrain_untraced(args.seed, args.seconds, report);
      }
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    report.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
