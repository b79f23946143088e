#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "gbdt/dataset.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/tree.hpp"
#include "util/rng.hpp"

namespace lfo::gbdt {
namespace {

Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset data(2);
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float a = static_cast<float>(rng.uniform01());
    const float b = static_cast<float>(rng.uniform01());
    const float label = ((a > 0.5f) != (b > 0.5f)) ? 1.0f : 0.0f;
    const float row[2] = {a, b};
    data.add_row(row, label);
  }
  return data;
}

TEST(Dataset, AddRowAndAccess) {
  Dataset d(3);
  const float r0[3] = {1, 2, 3};
  const float r1[3] = {4, 5, 6};
  d.add_row(r0, 1.0f);
  d.add_row(r1, 0.0f);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.feature(1, 2), 6.0f);
  EXPECT_EQ(d.label(0), 1.0f);
  EXPECT_EQ(d.row(1)[0], 4.0f);
}

TEST(Dataset, RejectsWrongArity) {
  Dataset d(2);
  const float r[3] = {1, 2, 3};
  EXPECT_THROW(d.add_row(r, 0.0f), std::invalid_argument);
  EXPECT_THROW(Dataset(0), std::invalid_argument);
}

TEST(Dataset, RejectsNaNButAcceptsInfinity) {
  Dataset d(2);
  const float nan_row[2] = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_THROW(d.add_row(nan_row, 0.0f), std::invalid_argument);
  EXPECT_EQ(d.num_rows(), 0u);
  // Binning and Tree::predict agree on +-inf (inf lands in the last bin
  // and goes right of every threshold), so a model learns them exactly.
  const float inf = std::numeric_limits<float>::infinity();
  util::Rng rng(30);
  for (int i = 0; i < 400; ++i) {
    const float x = i % 4 == 0   ? -inf
                    : i % 4 == 1 ? inf
                                 : static_cast<float>(rng.uniform01());
    const float row[2] = {x, static_cast<float>(rng.uniform01())};
    d.add_row(row, x > 0.5f ? 1.0f : 0.0f);
  }
  EXPECT_EQ(d.num_rows(), 400u);
  Params params;
  params.num_iterations = 10;
  params.min_data_in_leaf = 1;
  EXPECT_EQ(accuracy(train(d, params), d), 1.0);
}

TEST(BinnedDataset, FewDistinctValuesWithInfinitiesSplitLikeTheTree) {
  // One bin per distinct value: each bound must separate its neighbours
  // even when one is infinite or their difference overflows, stay finite
  // (Model::load rejects other thresholds), and put each value in the bin
  // that Tree::predict's `x <= threshold` sends it to.
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {-inf, 1.0f, 2.0f, inf};
  Dataset d(2);
  for (int i = 0; i < 400; ++i) {
    const float x = values[i % 4];
    const float huge = i % 2 == 0 ? -3e38f : 3e38f;
    const float row[2] = {x, huge};
    d.add_row(row, std::isinf(x) ? 1.0f : 0.0f);
  }
  const BinnedDataset binned(d, 64);
  EXPECT_EQ(binned.feature_bins(0).upper_bounds,
            (std::vector<float>{std::nextafter(1.0f, -inf), 1.5f,
                                std::numeric_limits<float>::max()}));
  EXPECT_EQ(binned.feature_bins(1).upper_bounds,
            (std::vector<float>{std::nextafter(3e38f, -3e38f)}));
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(binned.bin(r, 0), r % 4);
    EXPECT_EQ(binned.bin(r, 1), r % 2);
  }
  Params params;
  params.num_iterations = 10;
  params.min_data_in_leaf = 1;
  const Model model = train(d, params);
  EXPECT_EQ(accuracy(model, d), 1.0);
  std::stringstream saved;
  model.save(saved);
  EXPECT_EQ(accuracy(Model::load(saved), d), 1.0);
}

TEST(FeatureBins, BinForIsConsistentWithBounds) {
  FeatureBins fb;
  fb.upper_bounds = {1.0f, 5.0f, 9.0f};
  EXPECT_EQ(fb.num_bins(), 4u);
  EXPECT_EQ(fb.bin_for(0.5f), 0u);
  EXPECT_EQ(fb.bin_for(1.0f), 0u);  // boundary goes left
  EXPECT_EQ(fb.bin_for(1.5f), 1u);
  EXPECT_EQ(fb.bin_for(9.0f), 2u);
  EXPECT_EQ(fb.bin_for(100.0f), 3u);
}

TEST(FeatureBins, BinForIsLowerBound) {
  util::Rng rng(31);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t n = 0; n < 70; ++n) {
    FeatureBins fb;
    float v = -50.0f;
    for (std::size_t i = 0; i < n; ++i) {
      v += 0.5f + static_cast<float>(rng.uniform01());
      fb.upper_bounds.push_back(v);
    }
    std::vector<float> probes = {-inf, inf, 0.0f, -0.0f};
    probes.insert(probes.end(), fb.upper_bounds.begin(),
                  fb.upper_bounds.end());
    for (int i = 0; i < 50; ++i) {
      probes.push_back(static_cast<float>(rng.uniform_real(-60.0, 60.0)));
    }
    for (const float p : probes) {
      const auto expected = static_cast<std::uint32_t>(
          std::lower_bound(fb.upper_bounds.begin(), fb.upper_bounds.end(),
                           p) -
          fb.upper_bounds.begin());
      EXPECT_EQ(fb.bin_for(p), expected) << "n=" << n << " value=" << p;
    }
  }
}

TEST(BinnedDataset, FewDistinctValuesGetExactBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 3.0f, 1.0f, 2.0f}) {
    d.add_row({&v, 1}, 0.0f);
  }
  BinnedDataset binned(d, 64);
  EXPECT_EQ(binned.feature_bins(0).num_bins(), 3u);
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(2, 0), 2);
  EXPECT_EQ(binned.bin(3, 0), 0);
}

TEST(BinnedDataset, ManyValuesRespectMaxBins) {
  Dataset d(1);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform01());
    d.add_row({&v, 1}, 0.0f);
  }
  BinnedDataset binned(d, 16);
  EXPECT_LE(binned.feature_bins(0).num_bins(), 16u);
  EXPECT_GE(binned.feature_bins(0).num_bins(), 8u);
}

TEST(BinnedDataset, RowMajorBinsMatchEachColumnsBounds) {
  // Duplicates, a constant column, a two-valued column and more distinct
  // values than bins, read back through row(r) and bin(r, f).
  Dataset d(4);
  util::Rng rng(32);
  for (int i = 0; i < 3000; ++i) {
    const float row[4] = {static_cast<float>(rng.uniform(5)), 7.0f,
                          rng.bernoulli(0.9) ? 1e8f : 3.0f,
                          static_cast<float>(rng.pareto(1.0, 1.2))};
    d.add_row(row, 0.0f);
  }
  BinnedDataset binned(d, 16);
  EXPECT_EQ(binned.feature_bins(0).num_bins(), 5u);
  EXPECT_EQ(binned.feature_bins(1).num_bins(), 1u);
  EXPECT_EQ(binned.feature_bins(2).num_bins(), 2u);
  EXPECT_EQ(binned.feature_bins(3).num_bins(), 16u);
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    for (std::size_t f = 0; f < 4; ++f) {
      const auto expected = binned.feature_bins(f).bin_for(d.feature(r, f));
      ASSERT_EQ(binned.bin(r, f), expected) << "row " << r << " feature "
                                            << f;
      ASSERT_EQ(binned.row(r)[f], expected);
    }
  }
}

TEST(BinnedDataset, RejectsBadMaxBins) {
  Dataset d(1);
  const float v = 1.0f;
  d.add_row({&v, 1}, 0.0f);
  EXPECT_THROW(BinnedDataset(d, 1), std::invalid_argument);
  EXPECT_THROW(BinnedDataset(d, 257), std::invalid_argument);
}

TEST(Tree, SingleLeafPredictsRootValue) {
  Tree t(0.25);
  const float row[1] = {0.0f};
  EXPECT_DOUBLE_EQ(t.predict({row, 1}), 0.25);
  EXPECT_EQ(t.num_leaves(), 1);
}

TEST(Tree, SplitRoutesByThreshold) {
  Tree t(0.0);
  t.split_leaf(0, 0, 5.0f, -1.0, 1.0);
  const float lo[1] = {3.0f};
  const float hi[1] = {7.0f};
  const float edge[1] = {5.0f};
  EXPECT_DOUBLE_EQ(t.predict({lo, 1}), -1.0);
  EXPECT_DOUBLE_EQ(t.predict({hi, 1}), 1.0);
  EXPECT_DOUBLE_EQ(t.predict({edge, 1}), -1.0);  // <= goes left
  EXPECT_EQ(t.num_leaves(), 2);
  EXPECT_THROW(t.split_leaf(0, 0, 1.0f, 0, 0), std::logic_error);
}

TEST(Tree, SplitCountsPerFeature) {
  Tree t(0.0);
  const auto c = t.split_leaf(0, 1, 5.0f, 0.0, 0.0);
  t.split_leaf(c.left, 0, 2.0f, 0.0, 0.0);
  t.split_leaf(c.right, 1, 7.0f, 0.0, 0.0);
  std::vector<std::uint64_t> counts(2, 0);
  t.add_split_counts(counts);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(Tree, SaveLoadRoundTrip) {
  Tree t(0.5);
  const auto c = t.split_leaf(0, 0, 3.0f, -0.25, 0.75);
  t.split_leaf(c.right, 1, 1.5f, 0.1, 0.9);
  std::stringstream ss;
  t.save(ss);
  const auto back = Tree::load(ss);
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform_real(0, 5)),
                          static_cast<float>(rng.uniform_real(0, 3))};
    EXPECT_DOUBLE_EQ(back.predict({row, 2}), t.predict({row, 2}));
  }
}

TEST(Sigmoid, StableAndCorrect) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-12);
  EXPECT_NEAR(sigmoid(-2.0), 1.0 - sigmoid(2.0), 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);   // no overflow
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);  // no underflow
}

TEST(Train, LearnsLinearlySeparableData) {
  util::Rng rng(2);
  Dataset data(1);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, x > 0.5f ? 1.0f : 0.0f);
  }
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  EXPECT_GT(accuracy(model, data), 0.98);
}

TEST(Train, LearnsXorNonlinearity) {
  const auto data = xor_dataset(4000, 3);
  Params params;
  params.num_iterations = 30;
  const auto model = train(data, params);
  // XOR requires depth >= 2 interactions; a boosted tree handles it.
  EXPECT_GT(accuracy(model, data), 0.95);
}

TEST(Train, LoglossDecreasesMonotonically) {
  const auto data = xor_dataset(2000, 4);
  Params params;
  params.num_iterations = 0;  // the prior alone
  double previous = logloss(train(data, params), data);
  for (std::uint32_t k = 1; k <= 20; ++k) {
    params.num_iterations = k;
    const double loss = logloss(train(data, params), data);
    EXPECT_LE(loss, previous + 1e-9) << "at iteration " << k;
    previous = loss;
  }
}

TEST(Train, DeterministicPerSeed) {
  const auto data = xor_dataset(1000, 5);
  Params params;
  params.num_iterations = 5;
  params.bagging_fraction = 0.8;
  params.feature_fraction = 0.5;
  params.seed = 77;
  const auto m1 = train(data, params);
  const auto m2 = train(data, params);
  util::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.uniform01())};
    EXPECT_DOUBLE_EQ(m1.predict_proba({row, 2}), m2.predict_proba({row, 2}));
  }
}

TEST(Train, BaseScoreMatchesPrior) {
  Dataset data(1);
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.uniform01());
    data.add_row({&x, 1}, i % 4 == 0 ? 1.0f : 0.0f);  // 25% positive
  }
  Params params;
  params.num_iterations = 0;  // prior only
  const auto model = train(data, params);
  const float x = 0.5f;
  EXPECT_NEAR(model.predict_proba({&x, 1}), 0.25, 1e-9);
}

TEST(Train, RespectsNumLeaves) {
  const auto data = xor_dataset(2000, 8);
  Params params;
  params.num_iterations = 3;
  params.num_leaves = 4;
  const auto model = train(data, params);
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    EXPECT_LE(model.tree(t).num_leaves(), 4);
  }
}

TEST(Train, RejectsBadInputs) {
  Dataset empty(1);
  Params params;
  EXPECT_THROW(train(empty, params), std::invalid_argument);
  const auto data = xor_dataset(100, 10);
  params.num_leaves = 1;
  EXPECT_THROW(train(data, params), std::invalid_argument);
}

TEST(Model, SaveLoadRoundTrip) {
  const auto data = xor_dataset(1500, 11);
  Params params;
  params.num_iterations = 8;
  const auto model = train(data, params);
  std::stringstream ss;
  model.save(ss);
  const auto back = Model::load(ss);
  EXPECT_EQ(back.num_trees(), model.num_trees());
  util::Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const float row[2] = {static_cast<float>(rng.uniform01()),
                          static_cast<float>(rng.uniform01())};
    EXPECT_NEAR(back.predict_proba({row, 2}), model.predict_proba({row, 2}),
                1e-9);
  }
}

TEST(Model, LoadRejectsBadHeader) {
  std::stringstream ss("not a model");
  EXPECT_THROW(Model::load(ss), std::runtime_error);
}

TEST(Model, SplitSharesSumToOne) {
  const auto data = xor_dataset(2000, 13);
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  const auto shares = model.split_shares(2);
  EXPECT_NEAR(shares[0] + shares[1], 1.0, 1e-12);
  // XOR uses both features.
  EXPECT_GT(shares[0], 0.1);
  EXPECT_GT(shares[1], 0.1);
}

TEST(Model, IgnoresIrrelevantFeature) {
  util::Rng rng(14);
  Dataset data(2);
  for (int i = 0; i < 3000; ++i) {
    const float signal = static_cast<float>(rng.uniform01());
    const float noise = static_cast<float>(rng.uniform01());
    const float row[2] = {signal, noise};
    data.add_row(row, signal > 0.5f ? 1.0f : 0.0f);
  }
  Params params;
  params.num_iterations = 10;
  const auto model = train(data, params);
  const auto shares = model.split_shares(2);
  // Once the signal is fully separated, residual-gradient noise still
  // attracts some splits (LightGBM behaves the same); the signal feature
  // must nevertheless dominate.
  EXPECT_GT(shares[0], shares[1]);
  EXPECT_GT(shares[0], 0.5);
}

/// FNV-1a (64-bit) of a model's saved text.
std::uint64_t model_hash(const Model& model) {
  std::ostringstream os;
  model.save(os);
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// CDN-like matrix wider than the trainer's histogram feature block:
/// column 0 is constant, most columns are gap-like (heavy-tailed, often
/// the 1e8 "missing" value), and the last column has four values.
Dataset lock_dataset(std::size_t rows, Objective objective) {
  constexpr std::size_t kFeatures = 37;
  util::Rng rng(2024);
  Dataset data(kFeatures);
  data.reserve(rows);
  std::vector<float> row(kFeatures);
  for (std::size_t r = 0; r < rows; ++r) {
    row[0] = 3.0f;
    for (std::size_t f = 1; f + 1 < kFeatures; ++f) {
      const double missing = static_cast<double>(f) / kFeatures;
      row[f] = rng.bernoulli(missing)
                   ? 1e8f
                   : static_cast<float>(rng.pareto(1.0, 1.1));
    }
    row[kFeatures - 1] = static_cast<float>(rng.uniform(4));
    const double signal = std::log(row[1]) - 0.5 * std::log(row[2]) +
                          (row[9] < 1e8f ? 0.7 : 0.0) +
                          0.3 * row[kFeatures - 1] + rng.normal(0.0, 0.5);
    const float label = objective == Objective::kRegressionL2
                            ? static_cast<float>(signal)
                            : (signal > 1.0 ? 1.0f : 0.0f);
    data.add_row(row, label);
  }
  return data;
}

/// Pins the trainer's output byte for byte: a trainer change that moves a
/// single float sum changes these hashes, and must then come with an
/// explicit golden re-baseline.
TEST(Train, ModelBytesAreLocked) {
  struct Case {
    const char* name;
    std::uint64_t hash;
    Params params;
  };
  const auto with = [](auto edit) {
    Params p;
    p.num_iterations = 20;
    p.seed = 5;
    edit(p);
    return p;
  };
  const std::vector<Case> cases = {
      {"defaults", 13195167633742035176ull, Params{}},
      {"paper_defaults", 16237028671889993486ull, Params::paper_defaults()},
      {"bagging_0.7", 704402731634840238ull,
       with([](Params& p) { p.bagging_fraction = 0.7; })},
      {"feature_fraction_0.5", 17659434862047323879ull,
       with([](Params& p) { p.feature_fraction = 0.5; })},
      {"max_bins_2", 9543312799251086433ull,
       with([](Params& p) { p.max_bins = 2; })},
      {"max_bins_16", 14943701933463998192ull,
       with([](Params& p) { p.max_bins = 16; })},
      {"max_bins_256", 1183990493587022648ull,
       with([](Params& p) { p.max_bins = 256; })},
      {"min_data_in_leaf_0", 15814439519552635748ull,
       with([](Params& p) { p.min_data_in_leaf = 0; })},
      {"min_data_in_leaf_300", 6412719179655984314ull,
       with([](Params& p) { p.min_data_in_leaf = 300; })},
      {"num_leaves_2", 15206820211652892387ull,
       with([](Params& p) { p.num_leaves = 2; })},
  };
  const auto data = lock_dataset(4000, Objective::kBinaryLogistic);
  for (const auto& c : cases) {
    EXPECT_EQ(model_hash(train(data, c.params)), c.hash) << c.name;
    // The same bytes at any thread count.
    Params threaded = c.params;
    threaded.num_threads = 4;
    EXPECT_EQ(model_hash(train(data, threaded)), c.hash)
        << c.name << " at num_threads=4";
  }

  Params l2 = Params::paper_defaults();
  l2.objective = Objective::kRegressionL2;
  EXPECT_EQ(model_hash(train(lock_dataset(4000, Objective::kRegressionL2),
                             l2)),
            3162915497312484312ull)
      << "regression_l2";
  // Fewer features than one block.
  EXPECT_EQ(model_hash(train(xor_dataset(3000, 21), Params{})),
            5489266572580312115ull)
      << "xor_two_features";
}

TEST(Train, RawScoresAreTheModelsScores) {
  const auto data = lock_dataset(2000, Objective::kBinaryLogistic);
  for (const double bagging : {1.0, 0.6}) {
    Params params;
    params.num_iterations = 15;
    params.bagging_fraction = bagging;
    std::vector<double> raw;
    const auto model = train(data, params, nullptr, &raw);
    ASSERT_EQ(raw.size(), data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      ASSERT_EQ(raw[r], model.predict_raw(data.row(r)))
          << "row " << r << " bagging " << bagging;
    }
    const auto a = confusion(model, data);
    const auto b = confusion(raw, data);
    EXPECT_EQ(a.tp(), b.tp());
    EXPECT_EQ(a.fp(), b.fp());
    EXPECT_EQ(a.tn(), b.tn());
    EXPECT_EQ(a.fn(), b.fn());
  }
}

/// Property sweep: across hyperparameter settings, training converges to
/// something better than the trivial predictor on XOR.
struct HyperParams {
  std::uint32_t leaves;
  double lr;
  std::uint32_t iters;
};
// Without a printer gtest dumps the struct's bytes, padding included,
// into the listed test names, which then changed from build to build.
void PrintTo(const HyperParams& p, std::ostream* os) {
  *os << "leaves=" << p.leaves << ",lr=" << p.lr << ",iters=" << p.iters;
}
class TrainSweep : public ::testing::TestWithParam<HyperParams> {};

TEST_P(TrainSweep, BeatsTrivialBaseline) {
  const auto data = xor_dataset(2000, 15);
  Params params;
  params.num_leaves = GetParam().leaves;
  params.learning_rate = GetParam().lr;
  params.num_iterations = GetParam().iters;
  const auto model = train(data, params);
  EXPECT_GT(accuracy(model, data), 0.6);
  EXPECT_LT(logloss(model, data), std::log(2.0));
}

INSTANTIATE_TEST_SUITE_P(
    Hyperparameters, TrainSweep,
    ::testing::Values(HyperParams{4, 0.3, 10}, HyperParams{8, 0.1, 20},
                      HyperParams{31, 0.1, 30}, HyperParams{64, 0.05, 40},
                      HyperParams{16, 0.5, 5}));

}  // namespace
}  // namespace lfo::gbdt
