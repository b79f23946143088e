#ifndef LFO_GBDT_GBDT_HPP
#define LFO_GBDT_GBDT_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "gbdt/dataset.hpp"
#include "gbdt/tree.hpp"
#include "util/stats.hpp"

namespace lfo::util {
class ThreadPool;
}

namespace lfo::gbdt {

/// Training objective.
enum class Objective {
  kBinaryLogistic,  ///< labels in {0,1}; predict_proba is meaningful
  kRegressionL2,    ///< real-valued labels; use predict_raw
};

/// Training hyperparameters. Defaults mirror LightGBM's; the paper uses
/// LightGBM defaults except num_iterations = 30 (§2.3).
struct Params {
  Objective objective = Objective::kBinaryLogistic;
  std::uint32_t num_iterations = 100;
  double learning_rate = 0.1;
  std::uint32_t num_leaves = 31;
  std::int32_t max_depth = -1;      ///< -1 = unlimited
  std::uint32_t min_data_in_leaf = 20;
  double lambda_l2 = 0.0;
  double min_split_gain = 0.0;
  double feature_fraction = 1.0;    ///< fraction of features tried per tree
  double bagging_fraction = 1.0;    ///< fraction of rows sampled per tree
  std::uint32_t max_bins = 64;
  std::uint64_t seed = 1;

  /// Worker threads for histogram construction and per-feature split
  /// finding. Training is seed-deterministic: a fixed seed yields a
  /// bitwise-identical model at ANY thread count, because each feature's
  /// histogram is built independently and the split reduction always runs
  /// in feature order. 1 = serial; 0 = hardware concurrency.
  std::uint32_t num_threads = 1;

  /// Early stopping: when > 0, a `validation_fraction` of rows is held
  /// out; training stops after this many rounds without validation-loss
  /// improvement and the model is truncated to its best iteration.
  std::uint32_t early_stopping_rounds = 0;
  double validation_fraction = 0.1;

  /// The paper's configuration: LightGBM defaults with 30 iterations.
  static Params paper_defaults() {
    Params p;
    p.num_iterations = 30;
    return p;
  }
};

/// A trained boosted-tree binary classifier.
class Model {
 public:
  Model() = default;
  Model(double base_score, std::vector<Tree> trees);

  std::size_t num_trees() const { return trees_.size(); }
  const Tree& tree(std::size_t i) const { return trees_[i]; }
  double base_score() const { return base_score_; }

  /// Raw additive score (log-odds).
  double predict_raw(std::span<const float> features) const;
  /// Probability of the positive class (sigmoid of the raw score).
  double predict_proba(std::span<const float> features) const;

  /// Batched prediction over a row-major matrix of `out.size()` rows with
  /// `num_features` columns. Iterates tree-outer / row-inner so each
  /// tree's node arrays stay hot in cache; scores are bitwise identical
  /// to calling the scalar predictors row by row (same addition order).
  void predict_raw_batch(std::span<const float> matrix,
                         std::size_t num_features,
                         std::span<double> out) const;
  void predict_proba_batch(std::span<const float> matrix,
                           std::size_t num_features,
                           std::span<double> out) const;

  /// Per-feature count of internal-node splits across all trees — the
  /// feature-importance measure the paper plots in Fig 8.
  std::vector<std::uint64_t> split_counts(std::size_t num_features) const;
  /// split_counts normalized to fractions summing to 1.
  std::vector<double> split_shares(std::size_t num_features) const;

  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  /// Largest tree count load() accepts.
  static constexpr std::size_t kMaxLoadTrees = std::size_t{1} << 14;
  /// Read a model written by save(). Throws std::runtime_error on a bad
  /// header, a non-finite base score, a tree count above kMaxLoadTrees,
  /// or any tree Tree::load rejects (splits must use features below
  /// num_features).
  static Model load(std::istream& is,
                    std::size_t num_features = kMaxFeatures);
  static Model load_file(const std::string& path);

 private:
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
};

/// Per-iteration training diagnostics.
struct TrainLog {
  std::vector<double> train_logloss;  ///< after each iteration
  std::vector<double> valid_logloss;  ///< only with early stopping
  std::uint32_t best_iteration = 0;   ///< only with early stopping
  bool stopped_early = false;
};

/// Train a binary classifier with logistic loss. When params.num_threads
/// != 1 (or an external `pool` is supplied) histogram construction and
/// split finding are parallelized per feature; the result is bitwise
/// identical to a serial run with the same seed.
Model train(const Dataset& data, const Params& params,
            TrainLog* log = nullptr, util::ThreadPool* pool = nullptr);

/// Numerically stable sigmoid.
double sigmoid(double x);

/// Mean logistic loss of the model on a dataset.
double logloss(const Model& model, const Dataset& data);

/// Accuracy at the given probability cutoff.
double accuracy(const Model& model, const Dataset& data, double cutoff = 0.5);

/// Full confusion matrix at the given probability cutoff. accuracy() is
/// confusion().accuracy(); the rollout gate additionally derives the
/// model's and OPT's admit shares ((tp+fp)/total vs (tp+fn)/total) from
/// it, so one batched prediction pass serves both.
util::BinaryConfusion confusion(const Model& model, const Dataset& data,
                                double cutoff = 0.5);

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_GBDT_HPP
