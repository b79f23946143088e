// Tests for the extension features: Bloom second-hit admission, the
// two-tier hierarchy (paper §5), cutoff auto-tuning (§3), GBDT early
// stopping, training-time gap noise (§2.2), LFO policy-design options
// (§5), and LfoModel persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "cache/bloom_admission.hpp"
#include "cache/lru.hpp"
#include "cache/tiered.hpp"
#include "core/lfo_cache.hpp"
#include "core/tuning.hpp"
#include "features/dataset_builder.hpp"
#include "trace/generator.hpp"

namespace lfo {
namespace {

using trace::Request;

Request req(trace::ObjectId o, std::uint64_t size = 1) {
  return {o, size, static_cast<double>(size)};
}

TEST(RotatingBloom, RemembersAndForgets) {
  cache::RotatingBloomFilter filter(1 << 12, 4, /*rotation_period=*/4);
  filter.insert(42);
  EXPECT_TRUE(filter.contains(42));
  EXPECT_FALSE(filter.contains(43));
  // Two full rotations push 42 out of both arrays.
  for (std::uint64_t k = 100; k < 110; ++k) filter.insert(k);
  EXPECT_FALSE(filter.contains(42));
}

TEST(RotatingBloom, SurvivesOneRotation) {
  cache::RotatingBloomFilter filter(1 << 12, 4, /*rotation_period=*/4);
  filter.insert(7);
  for (std::uint64_t k = 100; k < 104; ++k) filter.insert(k);  // 1 rotation
  EXPECT_TRUE(filter.contains(7));  // still in the aged array
}

TEST(SecondHit, AdmitsOnlyOnSecondRequest) {
  cache::SecondHitCache cache(100);
  cache.access(req(1, 10));
  EXPECT_FALSE(cache.contains(1));  // first sighting: filtered
  cache.access(req(1, 10));
  EXPECT_TRUE(cache.contains(1));  // second sighting: admitted
}

TEST(SecondHit, FiltersOneHitWonders) {
  // A stream dominated by one-hit wonders: SecondHit must keep the hot
  // set and beat plain LRU on hit ratio.
  trace::GeneratorConfig config;
  config.num_requests = 40000;
  config.seed = 91;
  trace::ContentClass hot;
  hot.num_objects = 50;
  hot.zipf_alpha = 1.0;
  hot.size_log_mean = std::log(1000.0);
  hot.size_log_sigma = 0.1;
  hot.traffic_share = 0.5;
  trace::ContentClass cold = hot;
  cold.num_objects = 100000;
  cold.zipf_alpha = 0.0;
  cold.traffic_share = 0.5;
  config.classes = {hot, cold};
  const auto t = trace::generate_trace(config);

  cache::SecondHitCache second(60000);
  cache::LruCache lru(60000);
  for (const auto& r : t.requests()) {
    second.access(r);
    lru.access(r);
  }
  EXPECT_GT(second.stats().ohr(), lru.stats().ohr());
}

TEST(Tiered, PromotionAndDemotion) {
  cache::TieredCache cache(/*fast=*/2, /*capacity=*/4);
  cache.access(req(1));
  cache.access(req(2));  // fast tier now full: {2, 1}
  cache.access(req(3));  // 1 demoted to the capacity tier
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.demotions(), 1u);
  EXPECT_EQ(cache.fast_used(), 2u);
  EXPECT_EQ(cache.capacity_used(), 1u);
  cache.access(req(1));  // capacity-tier hit: promoted back to fast
  EXPECT_EQ(cache.capacity_hits(), 1u);
  cache.access(req(2));  // 2 was demoted by 1's promotion; hits capacity
  EXPECT_EQ(cache.capacity_hits(), 2u);
}

TEST(Tiered, HitsCountAcrossTiers) {
  cache::TieredCache cache(4, 16);
  for (trace::ObjectId o = 0; o < 10; ++o) cache.access(req(o));
  // Everything still cached somewhere (4 fast + up to 16 capacity).
  std::uint64_t present = 0;
  for (trace::ObjectId o = 0; o < 10; ++o) present += cache.contains(o);
  EXPECT_EQ(present, 10u);
  for (trace::ObjectId o = 0; o < 10; ++o) cache.access(req(o));
  EXPECT_EQ(cache.stats().hits, 10u);
  EXPECT_EQ(cache.fast_hits() + cache.capacity_hits(), 10u);
}

TEST(Tiered, PlacementFunctionControlsAdmission) {
  cache::TieredCache cache(10, 100);
  cache.set_placement([](const Request& r) {
    if (r.size > 50) return cache::TieredCache::Tier::kBypass;
    return r.size > 5 ? cache::TieredCache::Tier::kCapacity
                      : cache::TieredCache::Tier::kFast;
  });
  cache.access(req(1, 3));    // -> fast
  cache.access(req(2, 20));   // -> capacity
  cache.access(req(3, 80));   // -> bypass
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_EQ(cache.fast_used(), 3u);
  EXPECT_EQ(cache.capacity_used(), 20u);
}

TEST(Tiered, RejectsZeroTier) {
  EXPECT_THROW(cache::TieredCache(0, 10), std::invalid_argument);
  EXPECT_THROW(cache::TieredCache(10, 0), std::invalid_argument);
}

TEST(CutoffTuning, FindsEqualErrorAndMinErrorPoints) {
  const auto t = trace::generate_zipf_trace(15000, 600, 1.0, 92);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 6);
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);
  const auto tuning =
      core::tune_cutoff(*trained.model, reqs, trained.opt, config.cache_size);
  EXPECT_GT(tuning.equal_error_cutoff, 0.0);
  EXPECT_LT(tuning.equal_error_cutoff, 1.0);
  // The minimum error cannot exceed the error at the default cutoff.
  const auto confusion = core::evaluate_predictions(
      *trained.model, reqs, trained.opt, config.cache_size, 0.5);
  EXPECT_LE(tuning.min_error, 1.0 - confusion.accuracy() + 1e-12);
  // At the equal-error point, FP and FN shares should be close.
  const auto balanced = core::evaluate_predictions(
      *trained.model, reqs, trained.opt, config.cache_size,
      tuning.equal_error_cutoff);
  EXPECT_NEAR(balanced.false_positive_share(),
              balanced.false_negative_share(), 0.02);
}

TEST(CutoffTuning, RejectsMismatch) {
  const auto t = trace::generate_zipf_trace(1000, 100, 1.0, 93);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 4);
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);
  opt::OptDecisions wrong;  // empty
  EXPECT_THROW(
      core::tune_cutoff(*trained.model, reqs, wrong, config.cache_size),
      std::invalid_argument);
}

TEST(EarlyStopping, StopsAndTruncates) {
  util::Rng rng(94);
  gbdt::Dataset data(2);
  for (int i = 0; i < 3000; ++i) {
    const float a = static_cast<float>(rng.uniform01());
    const float b = static_cast<float>(rng.uniform01());
    // Noisy labels: after the signal is learned, more trees only overfit.
    const bool label = a > 0.5f ? rng.bernoulli(0.9) : rng.bernoulli(0.1);
    const float row[2] = {a, b};
    data.add_row(row, label ? 1.0f : 0.0f);
  }
  gbdt::Params params;
  params.num_iterations = 200;
  params.num_leaves = 64;
  params.min_data_in_leaf = 2;
  params.early_stopping_rounds = 5;
  params.validation_fraction = 0.2;
  gbdt::TrainLog log;
  const auto model = gbdt::train(data, params, &log);
  EXPECT_TRUE(log.stopped_early);
  EXPECT_LT(model.num_trees(), 200u);
  EXPECT_EQ(model.num_trees(), log.best_iteration + 1);
  EXPECT_EQ(log.valid_logloss.size(), log.train_logloss.size());
}

TEST(EarlyStopping, DisabledRunsAllIterations) {
  util::Rng rng(95);
  gbdt::Dataset data(1);
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, x > 0.5f ? 1.0f : 0.0f);
  }
  gbdt::Params params;
  params.num_iterations = 12;
  gbdt::TrainLog log;
  const auto model = gbdt::train(data, params, &log);
  EXPECT_EQ(model.num_trees(), 12u);
  EXPECT_FALSE(log.stopped_early);
  EXPECT_TRUE(log.valid_logloss.empty());
}

TEST(GapNoise, PerturbsOnlyRecordedGaps) {
  std::vector<Request> reqs{{0, 10, 10.0}, {0, 10, 10.0}, {0, 10, 10.0}};
  opt::OptDecisions d;
  d.cached = {1, 1, 0};
  d.cache_fraction = {1, 1, 0};
  features::DatasetBuildOptions clean;
  clean.features.num_gaps = 2;
  clean.features.missing_gap_value = -1.0f;
  auto noisy = clean;
  noisy.gap_noise_sigma = 0.3;
  noisy.noise_seed = 5;
  const auto a = features::build_dataset(reqs, d, clean);
  const auto b = features::build_dataset(reqs, d, noisy);
  const auto gap0 = clean.features.gap_offset();
  // Missing sentinel untouched; recorded gaps perturbed but positive.
  EXPECT_EQ(b.feature(0, gap0), -1.0f);
  EXPECT_NE(b.feature(1, gap0), a.feature(1, gap0));
  EXPECT_GT(b.feature(1, gap0), 0.0f);
  // Non-gap features identical.
  EXPECT_EQ(b.feature(1, 0), a.feature(1, 0));
}

TEST(GapNoise, SmallNoiseKeepsModelAccurate) {
  const auto t = trace::generate_zipf_trace(15000, 500, 1.0, 96);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 6);
  std::span<const Request> reqs(t.requests());
  const auto opt = opt::compute_opt(reqs, config.opt);

  features::DatasetBuildOptions noisy;
  noisy.features = config.features;
  noisy.cache_size = config.cache_size;
  noisy.gap_noise_sigma = 0.1;
  const auto data = features::build_dataset(reqs, opt, noisy);
  const auto model = gbdt::train(data, config.gbdt);
  EXPECT_GT(gbdt::accuracy(model, data), 0.8);
}

TEST(PolicyDesign, LruEvictionModeIgnoresRanking) {
  features::FeatureConfig fc;
  fc.num_gaps = 2;
  core::LfoPolicyOptions options;
  options.eviction = core::LfoPolicyOptions::EvictionRank::kLru;
  core::LfoCache cache(3, fc, 0.5, options);
  // Bootstrap (no model): everything admitted, eviction is pure LRU.
  cache.access(req(1));
  cache.access(req(2));
  cache.access(req(3));
  cache.access(req(1));  // refresh 1
  cache.access(req(4));  // evicts 2 (LRU), not by likelihood
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(PolicyDesign, NoRescoreKeepsAdmissionScore) {
  features::FeatureConfig fc;
  fc.num_gaps = 2;
  core::LfoPolicyOptions options;
  options.rescore_on_hit = false;
  core::LfoCache cache(100, fc, 0.5, options);
  cache.access(req(1, 10));
  const auto demoted_before = cache.demoted_hits();
  for (int i = 0; i < 30; ++i) cache.access(req(1, 10));  // hits
  EXPECT_EQ(cache.demoted_hits(), demoted_before);  // never re-scored
}

TEST(LfoModelPersistence, RoundTripPreservesPredictions) {
  const auto t = trace::generate_zipf_trace(8000, 300, 1.0, 97);
  core::LfoConfig config;
  config.set_cache_size(t.unique_bytes() / 5);
  config.features.num_gaps = 10;
  std::span<const Request> reqs(t.requests());
  const auto trained = core::train_on_window(reqs, config);

  std::stringstream ss;
  trained.model->save(ss);
  const auto back = core::LfoModel::load(ss);
  EXPECT_EQ(back.dimension(), trained.model->dimension());
  EXPECT_EQ(back.feature_config().num_gaps, 10u);

  util::Rng rng(98);
  std::vector<float> row(back.dimension());
  for (int i = 0; i < 50; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform(100000));
    EXPECT_NEAR(back.predict(row), trained.model->predict(row), 1e-12);
  }
}

TEST(LfoModelPersistence, LoadRejectsGarbage) {
  std::stringstream ss("definitely not a model");
  EXPECT_THROW(core::LfoModel::load(ss), std::runtime_error);
}

// A hand-written model file: a 7-wide schema (size, cost, free, 4 gaps)
// and one tree, given as its node lines "feature threshold left right
// value" after the node count.
std::string model_text(const std::string& tree,
                       const std::string& schema = "4 1 1 1 0 100000000",
                       const std::string& trees = "0.5 1") {
  return "lfo-model v1\n" + schema + "\nlfo-gbdt-model v1\n" + trees +
         "\n" + tree;
}

const std::string kRoot = "0 2.5 1 2 0\n";
const std::string kLeaves = "-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.75\n";

TEST(LfoModelPersistence, LoadAcceptsAHandWrittenModel) {
  std::stringstream ss(model_text("3\n" + kRoot + kLeaves));
  const auto model = core::LfoModel::load(ss);
  EXPECT_EQ(model.dimension(), 7u);
  std::vector<float> row(7, 0.0f);
  EXPECT_DOUBLE_EQ(model.booster().predict_raw(row), 0.75);
}

TEST(LfoModelPersistence, LoadRejectsCorruptTrees) {
  const std::pair<const char*, std::string> corrupt[] = {
      {"right child out of range", "3\n0 2.5 1 9 0\n" + kLeaves},
      {"left child back at the root", "3\n0 2.5 0 2 0\n" + kLeaves},
      {"negative child", "3\n0 2.5 -1 2 0\n" + kLeaves},
      {"shared child", "3\n0 2.5 1 1 0\n" + kLeaves},
      {"unreachable node", "4\n" + kRoot + kLeaves + "-1 0 -1 -1 1\n"},
      {"leaf with a right child", "3\n" + kRoot + "-1 0 -1 2 0.25\n" +
                                      "-1 0 -1 -1 -0.75\n"},
      {"split feature outside the schema", "3\n99 2.5 1 2 0\n" + kLeaves},
      {"negative split feature", "3\n-5 2.5 1 2 0\n" + kLeaves},
      // libstdc++ streams refuse nan/inf/overflowing tokens; load's own
      // finiteness check backs that up.
      {"NaN threshold", "3\n0 nan 1 2 0\n" + kLeaves},
      {"infinite leaf value", "3\n" + kRoot + "-1 0 -1 -1 inf\n" +
                                  "-1 0 -1 -1 -0.75\n"},
      {"node count above the bound", "1000000000\n" + kRoot},
      {"zero node count", "0\n"},
      {"truncated tree", "3\n" + kRoot},
  };
  for (const auto& [what, tree] : corrupt) {
    std::stringstream ss(model_text(tree));
    EXPECT_THROW(core::LfoModel::load(ss), std::runtime_error) << what;
  }
}

TEST(LfoModelPersistence, LoadRejectsBadCountsAndSchemas) {
  const std::string tree = "3\n" + kRoot + kLeaves;
  const std::pair<const char*, std::string> corrupt[] = {
      {"tree count above the bound",
       model_text(tree, "4 1 1 1 0 100000000", "0.5 1000000000")},
      {"non-finite base score",
       model_text(tree, "4 1 1 1 0 100000000", "nan 1")},
      {"empty schema", model_text(tree, "0 0 0 0 0 100000000")},
      {"gap count above the bound", model_text(tree, "4000000000 1 1 1 1 0")},
  };
  for (const auto& [what, text] : corrupt) {
    std::stringstream ss(text);
    EXPECT_THROW(core::LfoModel::load(ss), std::runtime_error) << what;
  }
}

}  // namespace
}  // namespace lfo
