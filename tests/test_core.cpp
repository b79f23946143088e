#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/lfo_cache.hpp"
#include "core/lfo_model.hpp"
#include "core/windowed.hpp"
#include "trace/generator.hpp"

namespace lfo::core {
namespace {

using trace::Request;

/// A hand-built model that thresholds on the size feature (index 0):
/// predicts "cache" for small objects. Lets the policy be tested without
/// a training run.
std::shared_ptr<const LfoModel> small_object_model(
    const features::FeatureConfig& config, float size_threshold) {
  gbdt::Tree tree(0.0);
  // left (size <= threshold) -> +4 (p ~ 0.98), right -> -4 (p ~ 0.02).
  tree.split_leaf(0, 0, size_threshold, 4.0, -4.0);
  std::vector<gbdt::Tree> trees{tree};
  return std::make_shared<const LfoModel>(gbdt::Model(0.0, std::move(trees)),
                                          config);
}

features::FeatureConfig small_config() {
  features::FeatureConfig config;
  config.num_gaps = 4;
  return config;
}

LfoConfig fast_lfo_config(std::uint64_t cache_size) {
  LfoConfig config;
  config.set_cache_size(cache_size);
  config.opt.mode = opt::OptMode::kGreedyPacking;
  config.features.num_gaps = 10;
  config.gbdt.num_iterations = 15;
  return config;
}

TEST(LfoModelTest, PredictAndImportance) {
  const auto config = small_config();
  const auto model = small_object_model(config, 100.0f);
  std::vector<float> row(config.dimension(), 0.0f);
  row[0] = 50.0f;
  EXPECT_GT(model->predict(row), 0.9);
  row[0] = 500.0f;
  EXPECT_LT(model->predict(row), 0.1);

  const auto importance = model->feature_importance();
  ASSERT_EQ(importance.size(), config.dimension());
  EXPECT_EQ(importance[0].name, "size");
  EXPECT_EQ(importance[0].splits, 1u);
  EXPECT_DOUBLE_EQ(importance[0].share, 1.0);
}

TEST(LfoCacheTest, BootstrapAdmitsEverythingLikeLru) {
  LfoCache cache(3, small_config());
  EXPECT_FALSE(cache.has_model());
  cache.access({1, 1, 1.0});
  cache.access({2, 1, 1.0});
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LfoCacheTest, AdmissionFollowsModelCutoff) {
  LfoCache cache(1000, small_config());
  cache.swap_model(small_object_model(small_config(), 100.0f));
  cache.access({1, 50, 50.0});   // small: admitted
  cache.access({2, 500, 500.0});  // large: bypassed
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.bypassed(), 1u);
}

TEST(LfoCacheTest, EvictsLowestLikelihoodFirst) {
  // Model: p decreasing in size. Fill with small objects of increasing
  // size, then overflow: the largest (lowest p) must be evicted.
  features::FeatureConfig config = small_config();
  LfoCache cache(100, config);
  // Two-leaf-per-split ladder: use three stacked stumps on size.
  gbdt::Tree t1(0.0), t2(0.0), t3(0.0);
  t1.split_leaf(0, 0, 20.0f, 1.0, -1.0);
  t2.split_leaf(0, 0, 40.0f, 1.0, -1.0);
  t3.split_leaf(0, 0, 60.0f, 1.0, -1.0);
  auto model = std::make_shared<const LfoModel>(
      gbdt::Model(1.0, {t1, t2, t3}), config);
  cache.swap_model(model);
  cache.access({1, 10, 10.0});  // p = sigmoid(4) high
  cache.access({2, 30, 30.0});  // p = sigmoid(2)
  cache.access({3, 50, 50.0});  // p = sigmoid(0) = 0.5 (>= cutoff)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  cache.access({4, 15, 15.0});  // needs 5 bytes: evicts object 3 (lowest p)
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LfoCacheTest, HitCanDemoteTheHitObject) {
  // gap1-sensitive model: big gap1 -> low likelihood. After a long idle
  // span, the re-requested object is re-scored low and becomes the next
  // eviction victim, the paper's hit-then-evict behaviour.
  features::FeatureConfig config = small_config();
  LfoCache cache(100, config);
  const auto gap1_index = 3;  // size, cost, free, gap1...
  gbdt::Tree tree(0.0);
  tree.split_leaf(0, gap1_index, 10.0f, 4.0, -4.0);
  cache.swap_model(std::make_shared<const LfoModel>(
      gbdt::Model(0.0, {tree}), config));

  cache.access({1, 40, 40.0});  // t=1, gap1 missing (1e8) -> p low... but
  // admission needs p >= .5; missing gap -> p=0.02: bypassed! So prime the
  // history first: second access within the gap window is admitted.
  cache.access({1, 40, 40.0});  // t=2, gap1=1 -> p high, admitted
  EXPECT_TRUE(cache.contains(1));
  // Idle requests to other objects (bypassed: huge gap1) to advance time.
  for (int i = 0; i < 20; ++i) cache.access({99, 1, 1.0});
  const auto demoted_before = cache.demoted_hits();
  cache.access({1, 40, 40.0});  // hit, but gap1 = 21 -> re-scored low
  EXPECT_GT(cache.demoted_hits(), demoted_before);
  // Next admission that needs room evicts object 1 despite its recent hit.
  cache.access({2, 80, 80.0});
  cache.access({2, 80, 80.0});  // gap1=1 -> admitted; evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LfoCacheTest, CutoffIsAdjustable) {
  LfoCache cache(1000, small_config(), 0.9);
  cache.swap_model(small_object_model(small_config(), 100.0f));
  EXPECT_DOUBLE_EQ(cache.cutoff(), 0.9);
  cache.set_cutoff(0.999);
  cache.access({1, 50, 50.0});  // p ~ 0.98 < 0.999: bypassed
  EXPECT_FALSE(cache.contains(1));
}

TEST(TrainOnWindow, LearnsOptWellOnSkewedTrace) {
  const auto t = trace::generate_zipf_trace(20000, 800, 1.0, 60);
  const auto config = fast_lfo_config(t.unique_bytes() / 6);
  const auto result =
      train_on_window(std::span<const Request>(t.requests()), config);
  ASSERT_NE(result.model, nullptr);
  EXPECT_EQ(result.num_samples, t.size());
  // The paper reports >93% agreement with OPT; in-sample on a synthetic
  // trace we should comfortably clear 85%.
  EXPECT_GT(result.train_accuracy, 0.85);
  EXPECT_GT(result.opt.hit_requests, 0u);
}

TEST(TrainOnWindow, EmptyWindowThrows) {
  const auto config = fast_lfo_config(1 << 20);
  EXPECT_THROW(train_on_window({}, config), std::invalid_argument);
}

TEST(EvaluatePredictions, PerfectModelHasZeroError) {
  // Evaluate the trained model against the same OPT labels in-sample: the
  // confusion accuracy must equal the training accuracy.
  const auto t = trace::generate_zipf_trace(8000, 300, 1.0, 61);
  const auto config = fast_lfo_config(t.unique_bytes() / 5);
  std::span<const Request> reqs(t.requests());
  const auto result = train_on_window(reqs, config);
  const auto confusion = evaluate_predictions(
      *result.model, reqs, result.opt, config.cache_size, config.cutoff);
  EXPECT_NEAR(confusion.accuracy(), result.train_accuracy, 1e-9);
}

TEST(WindowedRunner, RunsAllWindowsAndImprovesOverBootstrap) {
  const auto t = trace::generate_zipf_trace(30000, 1000, 1.0, 62);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 6000;
  const auto result = run_windowed_lfo(t, config);
  ASSERT_EQ(result.windows.size(), 5u);
  EXPECT_EQ(result.overall.requests, t.size());
  // First window has no model => no out-of-sample error reported.
  EXPECT_LT(result.windows[0].prediction_error, 0.0);
  for (std::size_t w = 1; w < result.windows.size(); ++w) {
    const auto err = result.windows[w].prediction_error;
    EXPECT_GE(err, 0.0) << w;
    EXPECT_LE(err, 0.5) << w;  // far better than coin-flipping
  }
  // OPT per window approximately bounds the online policy. (Cross-window
  // cache state lets LFO collect hits whose intervals began in the
  // previous window, so the in-window OPT is not a strict bound.)
  for (const auto& w : result.windows) {
    EXPECT_LE(w.bhr, w.opt_bhr + 0.15) << w.index;
  }
}

TEST(WindowedRunner, RetrainOffKeepsFirstModel) {
  const auto t = trace::generate_zipf_trace(12000, 400, 1.0, 63);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 4000;
  config.retrain = false;
  const auto result = run_windowed_lfo(t, config);
  ASSERT_EQ(result.windows.size(), 3u);
  // Only the first window trains.
  EXPECT_GT(result.windows[0].train_accuracy, 0.0);
  EXPECT_EQ(result.windows[1].train_accuracy, 0.0);
  EXPECT_EQ(result.windows[2].train_accuracy, 0.0);
}

// window_hook publication order. Sync publishes each report at its own
// boundary. Async publishes a report once its training job is popped:
// with retrain off and swap_lag 2 the jobs of windows 0-2 queue, job 0
// is popped at boundary 2, windows 3.. train nothing and publish at
// once, and jobs 1-2 are drained after the last window.
TEST(WindowedRunner, ReportPublicationOrder) {
  const auto t = trace::generate_zipf_trace(14000, 400, 1.0, 64);
  WindowedConfig config;
  config.lfo = fast_lfo_config(t.unique_bytes() / 6);
  config.window_size = 2000;
  config.retrain = false;
  config.swap_lag = 2;
  config.train_threads = 2;
  std::vector<std::size_t> order;
  config.window_hook = [&order](const WindowReport& report) {
    order.push_back(report.index);
  };
  const auto sync = run_windowed_lfo(t, config);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
  order.clear();
  config.async = true;
  const auto async = run_windowed_lfo(t, config);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 4, 5, 6, 1, 2}));
  EXPECT_TRUE(same_decisions(sync, async));
}

}  // namespace
}  // namespace lfo::core
