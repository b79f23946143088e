#ifndef LFO_CORE_LFO_MODEL_HPP
#define LFO_CORE_LFO_MODEL_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "features/dataset_builder.hpp"
#include "features/features.hpp"
#include "gbdt/flat_forest.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/quantized_forest.hpp"
#include "obs/model_health.hpp"
#include "opt/opt.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace lfo::core {

/// End-to-end LFO configuration: how OPT labels are derived, which online
/// features are used, how the booster is trained, and the admission cutoff.
struct LfoConfig {
  std::uint64_t cache_size = 1ULL << 30;
  opt::OptConfig opt;                 ///< OPT label computation
  features::FeatureConfig features;   ///< online feature vector (§2.2)
  gbdt::Params gbdt = gbdt::Params::paper_defaults();  ///< §2.3
  double cutoff = 0.5;                ///< admission threshold (§2.4)

  LfoConfig() {
    opt.cache_size = cache_size;
    opt.mode = opt::OptMode::kGreedyPacking;
  }
  /// Keep opt.cache_size in sync when changing cache_size.
  void set_cache_size(std::uint64_t bytes) {
    cache_size = bytes;
    opt.cache_size = bytes;
  }
};

/// A trained LFO predictor: the boosted-tree model plus the feature schema
/// it was trained with. Thread-safe for concurrent prediction (immutable
/// after construction).
class LfoModel {
 public:
  /// Which inference kernel serves predictions. kFlatForest (default) is
  /// the compiled contiguous engine and kTreeWalk the reference per-tree
  /// walk over gbdt::Model — both bitwise identical by construction.
  /// kFlatQuantized serves from histogram-bin-quantized rows with SIMD
  /// lane groups (gbdt::QuantizedForest); its contract only promises
  /// identical *decisions* (scores may differ in ulps, see DESIGN.md),
  /// though the current implementation reproduces the reference bitwise
  /// too. The toggle exists so tests and bench_fig7_throughput can
  /// diff/compare the engines.
  enum class Engine { kFlatForest, kTreeWalk, kFlatQuantized };

  LfoModel(gbdt::Model model, features::FeatureConfig config);

  /// Engine newly constructed models start with (process-wide, defaults
  /// to kFlatForest). Set before a run to A/B the engines end to end.
  static void set_default_engine(Engine engine);
  static Engine default_engine();
  void set_engine(Engine engine) { engine_ = engine; }
  Engine engine() const { return engine_; }

  /// Probability that OPT would cache this feature vector.
  double predict(std::span<const float> feature_row) const;
  /// Allocation-free variant: the quantized engine bins the row into
  /// `scratch.quantized` (grow-once, caller-owned — LfoCache passes its
  /// per-instance FeatureScratch). Other engines ignore the scratch.
  double predict(std::span<const float> feature_row,
                 features::FeatureScratch& scratch) const;

  /// Batched prediction over a row-major matrix whose rows have
  /// dimension() columns. Bitwise identical to row-by-row predict();
  /// much friendlier to the cache (blocked level-synchronous traversal
  /// on the flat engine, tree-outer on the reference walk). Used by the
  /// eviction-ranking rescore and the prediction-error evaluation.
  std::vector<double> predict_batch(std::span<const float> matrix) const;
  /// Allocation-free variant writing into caller-owned storage.
  void predict_batch(std::span<const float> matrix,
                     std::span<double> out) const;

  const gbdt::Model& booster() const { return model_; }
  /// The compiled serving engines (built once at construction, i.e. at
  /// model-swap time in the windowed pipeline).
  const gbdt::FlatForest& forest() const { return forest_; }
  const gbdt::QuantizedForest& quantized() const { return quantized_; }
  const features::FeatureConfig& feature_config() const { return config_; }
  std::size_t dimension() const { return config_.dimension(); }

  /// Fig 8: fraction of tree splits per feature, labelled.
  struct FeatureImportance {
    std::string name;
    std::uint64_t splits;
    double share;
  };
  std::vector<FeatureImportance> feature_importance() const;

  /// Persistence: the booster plus the feature schema it expects, so a
  /// loaded model can never be fed a mismatched feature vector. load()
  /// throws std::runtime_error on any file gbdt::Model::load rejects,
  /// on a schema of 0 or more than gbdt::kMaxFeatures features, and on
  /// a split feature outside the schema.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;
  static LfoModel load(std::istream& is);
  static LfoModel load_file(const std::string& path);

 private:
  gbdt::Model model_;
  gbdt::FlatForest forest_;
  features::FeatureConfig config_;
  gbdt::QuantizedForest quantized_;  // after config_: compile needs dimension()
  Engine engine_;
};

/// Diagnostics of one training run.
struct TrainResult {
  std::shared_ptr<const LfoModel> model;
  opt::OptDecisions opt;           ///< the labels used
  double train_accuracy = 0.0;     ///< agreement with OPT on the window
  /// In-sample confusion at the cutoff; train_accuracy is its
  /// accuracy(). The rollout gate derives the model-vs-OPT admit-share
  /// delta from it ((tp+fp)/total vs (tp+fn)/total).
  util::BinaryConfusion train_confusion;
  double opt_seconds = 0.0;
  double train_seconds = 0.0;
  std::size_t num_samples = 0;
  /// Per-feature mean/stddev of the training matrix — the baseline the
  /// model-health monitor compares later windows against for drift.
  std::shared_ptr<const obs::FeatureSummary> feature_summary;
};

/// Train an LFO model on one window of requests (paper Fig 2, left side):
/// compute OPT, derive features, fit the booster.
TrainResult train_on_window(std::span<const trace::Request> window,
                            const LfoConfig& config);

/// Replay `window` through the feature extractor and compare the model's
/// cutoff decisions against OPT's. This is the paper's "prediction error"
/// (Figs 5a-5c): the free-bytes feature is derived from OPT's occupancy,
/// mirroring dataset construction.
util::BinaryConfusion evaluate_predictions(
    const LfoModel& model, std::span<const trace::Request> window,
    const opt::OptDecisions& opt, std::uint64_t cache_size, double cutoff);

}  // namespace lfo::core

#endif  // LFO_CORE_LFO_MODEL_HPP
