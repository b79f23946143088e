// Property tests of the histogram-bin-quantized inference engine
// (gbdt::QuantizedForest, LfoModel::Engine::kFlatQuantized). The engine's
// contract allows scores to differ from the float engines in ulps as long
// as decisions never do; the implementation is in fact bitwise identical
// to the per-tree reference walk, and these tests pin that down on
// randomized forests covering exact threshold equality, ±inf values,
// >255-cut features (forcing the uint16 row path), SIMD lane-group tails,
// and the forced-scalar fallback (so CI covers both code paths even on
// AVX2 hardware).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/windowed.hpp"
#include "gbdt/quantized_forest.hpp"
#include "gbdt/gbdt.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace lfo;

constexpr float kMissingGap = 1e8f;
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Row values drawn from a small integer pool so they frequently hit a
/// split threshold exactly (the `<=` boundary), with the missing-gap
/// sentinel and both infinities mixed in.
float random_value(util::Rng& rng) {
  switch (rng.uniform(8)) {
    case 0:
      return kMissingGap;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    case 3:
      return -static_cast<float>(rng.uniform(16));
    default:
      return static_cast<float>(rng.uniform(16));
  }
}

gbdt::Tree random_tree(util::Rng& rng, std::size_t num_features,
                       std::uint64_t max_splits) {
  gbdt::Tree tree(rng.normal(0.0, 1.0));
  std::vector<std::int32_t> leaves{0};
  const auto splits = rng.uniform(max_splits + 1);
  for (std::uint64_t s = 0; s < splits; ++s) {
    const auto pick = rng.uniform(leaves.size());
    const auto leaf = leaves[pick];
    leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto feature =
        static_cast<std::int32_t>(rng.uniform(num_features));
    // Thresholds overlap the row-value pool (exact-equality boundary
    // cases) and include the missing-gap sentinel.
    const float threshold =
        rng.uniform(8) == 0 ? kMissingGap
                            : static_cast<float>(rng.uniform(16));
    const auto children = tree.split_leaf(leaf, feature, threshold,
                                          rng.normal(0.0, 1.0),
                                          rng.normal(0.0, 1.0));
    leaves.push_back(children.left);
    leaves.push_back(children.right);
  }
  return tree;
}

gbdt::Model random_model(std::uint64_t seed, std::size_t num_trees,
                         std::size_t num_features,
                         std::uint64_t max_splits) {
  util::Rng rng(seed);
  std::vector<gbdt::Tree> trees;
  trees.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    trees.push_back(random_tree(rng, num_features, max_splits));
  }
  return gbdt::Model(rng.normal(0.0, 0.5), std::move(trees));
}

std::vector<float> random_matrix(util::Rng& rng, std::size_t rows,
                                 std::size_t num_features) {
  std::vector<float> matrix(rows * num_features);
  for (auto& v : matrix) v = random_value(rng);
  return matrix;
}

/// The reference score: base score plus each tree's contribution,
/// accumulated in tree order (= Model::predict_raw).
double tree_walk_raw(const gbdt::Model& model,
                     std::span<const float> row) {
  double score = model.base_score();
  for (std::size_t t = 0; t < model.num_trees(); ++t) {
    score += model.tree(t).predict(row);
  }
  return score;
}

/// A model whose feature 0 carries more than 255 distinct thresholds, so
/// the compiled forest must pick the uint16 row encoding.
gbdt::Model wide_bin_model(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<gbdt::Tree> trees;
  float next_threshold = 0.0f;
  for (std::size_t t = 0; t < 30; ++t) {
    gbdt::Tree tree(rng.normal(0.0, 1.0));
    std::int32_t leaf = 0;
    for (int s = 0; s < 10; ++s) {
      // 300 distinct thresholds on feature 0 across the forest.
      const auto children =
          tree.split_leaf(leaf, 0, next_threshold, rng.normal(0.0, 1.0),
                          rng.normal(0.0, 1.0));
      next_threshold += 0.5f;
      leaf = children.right;
    }
    trees.push_back(std::move(tree));
  }
  return gbdt::Model(0.25, std::move(trees));
}

/// Chains deeper than the 16 levels QuantizedForest lays out as perfect
/// trees, so the compiled forest has no perfect layout and every batch
/// takes the scalar kernel. Level l splits feature l % num_features at l
/// and the chain continues right, so rows with large or +inf values walk
/// far down.
gbdt::Model deep_chain_model(std::uint64_t seed, std::size_t num_features) {
  util::Rng rng(seed);
  std::vector<gbdt::Tree> trees;
  for (std::size_t t = 0; t < 3; ++t) {
    gbdt::Tree tree(rng.normal(0.0, 1.0));
    std::int32_t leaf = 0;
    for (int level = 0; level < 20; ++level) {
      const auto children = tree.split_leaf(
          leaf, static_cast<std::int32_t>(level % num_features),
          static_cast<float>(level), rng.normal(0.0, 1.0),
          rng.normal(0.0, 1.0));
      leaf = children.right;
    }
    trees.push_back(std::move(tree));
  }
  return gbdt::Model(0.1, std::move(trees));
}

/// RAII restore of the process-wide SIMD mode.
struct SimdGuard {
  gbdt::SimdMode saved = gbdt::simd_mode();
  ~SimdGuard() { gbdt::set_simd_mode(saved); }
};

/// RAII restore of the process-wide default engine.
struct EngineGuard {
  core::LfoModel::Engine saved = core::LfoModel::default_engine();
  ~EngineGuard() { core::LfoModel::set_default_engine(saved); }
};

TEST(QuantizedForest, BinLookupReproducesFloatComparison) {
  // The core quantization property: for every compiled cut table and
  // every boundary index j, `bin_for(v) <= j` must agree with
  // `v <= threshold_j` — the float comparison the trainer's trees use —
  // for values at, below, above, and far from the boundary, including
  // ±inf and the missing-gap sentinel.
  util::Rng rng(41);
  for (std::uint64_t round = 0; round < 20; ++round) {
    const std::size_t num_features = 1 + rng.uniform(8);
    const auto model =
        random_model(500 + round, 1 + rng.uniform(10), num_features, 40);
    const auto forest =
        gbdt::QuantizedForest::compile(model, num_features);
    for (std::size_t f = 0; f < num_features; ++f) {
      const auto& cuts = forest.boundaries(f).upper_bounds;
      for (std::size_t j = 0; j < cuts.size(); ++j) {
        const float threshold = cuts[j];
        const float probes[] = {threshold,
                                std::nextafter(threshold, -kInf),
                                std::nextafter(threshold, kInf),
                                -kInf,
                                kInf,
                                kMissingGap,
                                random_value(rng)};
        for (const float v : probes) {
          const bool float_left = v <= threshold;
          const bool bin_left = forest.boundaries(f).bin_for(v) <= j;
          EXPECT_EQ(bin_left, float_left)
              << "feature " << f << " cut " << j << " threshold "
              << threshold << " value " << v;
        }
      }
    }
  }
}

TEST(QuantizedForest, SinglePredictBitwiseIdenticalToTreeWalk) {
  util::Rng rng(17);
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t round = 0; round < 40; ++round) {
    const std::size_t num_features = 1 + rng.uniform(12);
    const std::size_t num_trees = rng.uniform(12);
    const auto max_splits = 1 + rng.uniform(30);
    const auto model =
        random_model(100 + round, num_trees, num_features, max_splits);
    const auto forest =
        gbdt::QuantizedForest::compile(model, num_features);
    ASSERT_EQ(forest.num_trees(), model.num_trees());

    const auto matrix = random_matrix(rng, 32, num_features);
    for (std::size_t r = 0; r < 32; ++r) {
      const std::span<const float> row{matrix.data() + r * num_features,
                                       num_features};
      EXPECT_EQ(forest.predict_raw(row, scratch), tree_walk_raw(model, row))
          << "round " << round << " row " << r;
      EXPECT_EQ(forest.predict_proba(row, scratch),
                model.predict_proba(row))
          << "round " << round << " row " << r;
    }
  }
}

TEST(QuantizedForest, BatchEqualsSingleSampleTimesN) {
  // Row counts straddle the SIMD lane-group width (8) and the scalar
  // block width (64), so full lane groups, scalar tails, and
  // scalar-only batches are all exercised. The deep chain forest has no
  // perfect layout, so its batches run the scalar kernel throughout.
  util::Rng rng(23);
  std::vector<std::uint8_t> scratch, row_scratch;
  constexpr std::size_t num_features = 6;
  EXPECT_FALSE(
      gbdt::QuantizedForest::compile(deep_chain_model(0, num_features),
                                     num_features)
          .complete_layout());
  for (const std::size_t rows : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u,
                                 513u}) {
    for (const auto& model :
         {random_model(900 + rows, 10, num_features, 40),
          deep_chain_model(rows, num_features)}) {
      const auto forest =
          gbdt::QuantizedForest::compile(model, num_features);
      const auto matrix = random_matrix(rng, rows, num_features);

      std::vector<double> raw(rows), proba(rows);
      forest.predict_raw_batch(matrix, num_features, raw, scratch);
      forest.predict_proba_batch(matrix, num_features, proba, scratch);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::span<const float> row{matrix.data() + r * num_features,
                                         num_features};
        EXPECT_EQ(raw[r], forest.predict_raw(row, row_scratch))
            << "rows=" << rows << " r=" << r;
        EXPECT_EQ(proba[r], forest.predict_proba(row, row_scratch))
            << "rows=" << rows << " r=" << r;
        EXPECT_EQ(raw[r], tree_walk_raw(model, row));
      }
    }
  }
}

TEST(QuantizedForest, WideCutTablesForceUint16RowsAndStayIdentical) {
  const auto model = wide_bin_model(7);
  const auto forest = gbdt::QuantizedForest::compile(model, 3);
  ASSERT_GT(forest.boundaries(0).upper_bounds.size(), 255u)
      << "test model must overflow the uint8 bin range";
  EXPECT_EQ(forest.row_bytes(), 2u);

  util::Rng rng(11);
  std::vector<float> matrix(100 * 3);
  for (auto& v : matrix) {
    // Values across the whole 300-threshold range, half exactly on a
    // boundary.
    v = rng.uniform(2) == 0
            ? static_cast<float>(rng.uniform(320)) * 0.5f
            : static_cast<float>(rng.normal(75.0, 60.0));
  }
  std::vector<std::uint8_t> scratch;
  std::vector<double> raw(100);
  forest.predict_raw_batch(matrix, 3, raw, scratch);
  for (std::size_t r = 0; r < 100; ++r) {
    const std::span<const float> row{matrix.data() + r * 3, 3};
    EXPECT_EQ(raw[r], tree_walk_raw(model, row)) << "row " << r;
  }

  // And a small forest keeps the compact uint8 encoding.
  const auto small = random_model(3, 8, 4, 20);
  EXPECT_EQ(gbdt::QuantizedForest::compile(small, 4).row_bytes(), 1u);
}

TEST(QuantizedForest, ForcedScalarFallbackIsBitwiseIdentical) {
  SimdGuard guard;
  util::Rng rng(59);
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t round = 0; round < 10; ++round) {
    const std::size_t num_features = 1 + rng.uniform(10);
    const auto model =
        random_model(700 + round, 1 + rng.uniform(12), num_features, 35);
    const auto forest =
        gbdt::QuantizedForest::compile(model, num_features);
    const std::size_t rows = 1 + rng.uniform(200);
    const auto matrix = random_matrix(rng, rows, num_features);

    gbdt::set_simd_mode(gbdt::SimdMode::kAuto);
    std::vector<double> auto_out(rows);
    forest.predict_raw_batch(matrix, num_features, auto_out, scratch);

    gbdt::set_simd_mode(gbdt::SimdMode::kForceScalar);
    EXPECT_STREQ(gbdt::active_simd_kernel(), "scalar");
    std::vector<double> scalar_out(rows);
    forest.predict_raw_batch(matrix, num_features, scalar_out, scratch);

    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(auto_out[r], scalar_out[r])
          << "round " << round << " row " << r
          << ": SIMD and scalar kernels disagree";
    }
  }
}

TEST(QuantizedForest, HandlesStumpsAndEmptyForests) {
  std::vector<gbdt::Tree> stumps;
  stumps.emplace_back(0.25);
  stumps.emplace_back(-0.75);
  const gbdt::Model model(0.5, std::move(stumps));
  const auto forest = gbdt::QuantizedForest::compile(model, 1);
  EXPECT_EQ(forest.max_depth(), 0);
  std::vector<std::uint8_t> scratch;
  const std::vector<float> row{1.0f};
  EXPECT_EQ(forest.predict_raw(row, scratch), 0.5 + 0.25 + -0.75);

  const gbdt::Model empty;
  const auto empty_forest = gbdt::QuantizedForest::compile(empty, 1);
  EXPECT_EQ(empty_forest.num_nodes(), 0u);
  EXPECT_EQ(empty_forest.predict_proba(row, scratch), gbdt::sigmoid(0.0));
}

TEST(QuantizedForest, LfoModelQuantizedEngineMatchesTreeWalk) {
  EngineGuard guard;
  core::LfoModel::set_default_engine(
      core::LfoModel::Engine::kFlatQuantized);
  features::FeatureConfig fc;
  fc.num_gaps = 5;
  auto model = random_model(77, 10, fc.dimension(), 30);
  core::LfoModel lfo(std::move(model), fc);
  EXPECT_EQ(lfo.engine(), core::LfoModel::Engine::kFlatQuantized);

  util::Rng rng(3);
  const auto matrix = random_matrix(rng, 100, fc.dimension());
  const auto quantized = lfo.predict_batch(matrix);
  lfo.set_engine(core::LfoModel::Engine::kTreeWalk);
  const auto walk = lfo.predict_batch(matrix);
  ASSERT_EQ(quantized.size(), walk.size());
  lfo.set_engine(core::LfoModel::Engine::kFlatQuantized);
  features::FeatureScratch scratch;
  for (std::size_t r = 0; r < quantized.size(); ++r) {
    EXPECT_EQ(quantized[r], walk[r]) << "row " << r;
    const std::span<const float> row{matrix.data() + r * fc.dimension(),
                                     fc.dimension()};
    EXPECT_EQ(walk[r], lfo.predict(row)) << "row " << r;
    EXPECT_EQ(walk[r], lfo.predict(row, scratch)) << "row " << r;
  }
}

TEST(QuantizedForest, PipelineDecisionsIdenticalToTreeWalk) {
  EngineGuard guard;
  const auto trace = trace::generate_zipf_trace(6000, 600, 0.9, 21);
  core::WindowedConfig config;
  config.lfo.set_cache_size(1 << 22);
  config.lfo.features.num_gaps = 10;
  config.lfo.gbdt.num_iterations = 8;
  config.window_size = 1000;
  config.swap_lag = 1;

  core::LfoModel::set_default_engine(
      core::LfoModel::Engine::kFlatQuantized);
  config.async = false;
  const auto quant_sync = core::run_windowed_lfo(trace, config);
  config.async = true;
  config.train_threads = 2;
  const auto quant_async = core::run_windowed_lfo(trace, config);

  core::LfoModel::set_default_engine(core::LfoModel::Engine::kTreeWalk);
  config.async = false;
  const auto tree_sync = core::run_windowed_lfo(trace, config);

  EXPECT_TRUE(core::same_decisions(quant_sync, tree_sync))
      << "quantized engine drifted from the tree walk (sync)";
  EXPECT_TRUE(core::same_decisions(quant_sync, quant_async))
      << "quantized engine not deterministic across sync/async";
}

}  // namespace
