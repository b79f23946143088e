#include "gbdt/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lfo::gbdt {

double sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

Model::Model(double base_score, std::vector<Tree> trees)
    : base_score_(base_score), trees_(std::move(trees)) {}

double Model::predict_raw(std::span<const float> features) const {
  double score = base_score_;
  for (const auto& t : trees_) score += t.predict(features);
  return score;
}

double Model::predict_proba(std::span<const float> features) const {
  return sigmoid(predict_raw(features));
}

void Model::predict_raw_batch(std::span<const float> matrix,
                              std::size_t num_features,
                              std::span<double> out) const {
  LFO_CHECK_GT(num_features, 0u) << "predict_raw_batch: zero-width rows";
  LFO_CHECK_EQ(matrix.size(), out.size() * num_features)
      << "predict_raw_batch: matrix/output shape mismatch";
  std::fill(out.begin(), out.end(), base_score_);
  for (const auto& t : trees_) {
    const float* row = matrix.data();
    for (std::size_t r = 0; r < out.size(); ++r, row += num_features) {
      out[r] += t.predict({row, num_features});
    }
  }
}

void Model::predict_proba_batch(std::span<const float> matrix,
                                std::size_t num_features,
                                std::span<double> out) const {
  predict_raw_batch(matrix, num_features, out);
  for (auto& v : out) v = sigmoid(v);
}

std::vector<std::uint64_t> Model::split_counts(
    std::size_t num_features) const {
  std::vector<std::uint64_t> counts(num_features, 0);
  for (const auto& t : trees_) t.add_split_counts(counts);
  return counts;
}

std::vector<double> Model::split_shares(std::size_t num_features) const {
  const auto counts = split_counts(num_features);
  const double total = static_cast<double>(
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}));
  std::vector<double> shares(counts.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      shares[i] = static_cast<double>(counts[i]) / total;
    }
  }
  return shares;
}

void Model::save(std::ostream& os) const {
  os.precision(17);
  os << "lfo-gbdt-model v1\n";
  os << base_score_ << ' ' << trees_.size() << '\n';
  for (const auto& t : trees_) t.save(os);
}

void Model::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("Model::save_file: cannot open " + path);
  save(os);
}

Model Model::load(std::istream& is, std::size_t num_features) {
  std::string tag, version;
  is >> tag >> version;
  if (!is || tag != "lfo-gbdt-model" || version != "v1") {
    throw std::runtime_error("Model::load: bad header");
  }
  double base = 0.0;
  std::size_t count = 0;
  is >> base >> count;
  if (!is || !std::isfinite(base) || count > kMaxLoadTrees) {
    throw std::runtime_error("Model::load: bad base score or tree count");
  }
  std::vector<Tree> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trees.push_back(Tree::load(is, num_features));
  }
  return Model(base, std::move(trees));
}

Model Model::load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("Model::load_file: cannot open " + path);
  return load(is);
}

namespace {

/// Gradient/hessian histogram of one feature over one leaf's rows.
struct Histogram {
  double sum_g[256];
  double sum_h[256];
  std::uint32_t count[256];
  void clear(std::uint32_t bins) {
    std::fill_n(sum_g, bins, 0.0);
    std::fill_n(sum_h, bins, 0.0);
    std::fill_n(count, bins, 0u);
  }
};

struct SplitInfo {
  double gain = 0.0;
  std::int32_t feature = -1;
  std::uint32_t bin = 0;  ///< go left when bin <= this
  double left_g = 0, left_h = 0, right_g = 0, right_h = 0;

  bool valid() const { return feature >= 0; }
};

/// A grown leaf pending a potential split: rows are the [begin, end) slice
/// of the trainer's index array.
struct LeafTask {
  std::int32_t node = 0;
  std::size_t begin = 0, end = 0;
  double sum_g = 0, sum_h = 0;
  std::int32_t depth = 0;
  SplitInfo best;
};

struct GainLess {
  bool operator()(const LeafTask& a, const LeafTask& b) const {
    return a.best.gain < b.best.gain;
  }
};

class Trainer {
 public:
  Trainer(const Dataset& data, const Params& params, util::ThreadPool* pool)
      : data_(data),
        params_(params),
        pool_(pool),
        binned_(data, params.max_bins),
        rng_(params.seed),
        scores_(data.num_rows(), 0.0),
        gradients_(data.num_rows(), 0.0),
        hessians_(data.num_rows(), 0.0) {
    if (params.early_stopping_rounds > 0) {
      is_valid_.assign(data.num_rows(), 0);
      for (auto& flag : is_valid_) {
        flag = rng_.bernoulli(params.validation_fraction) ? 1 : 0;
      }
    }
    if (params.objective == Objective::kBinaryLogistic) {
      // Base score: log-odds of the positive-label prior.
      double pos = 0.0;
      for (std::size_t r = 0; r < data.num_rows(); ++r) {
        pos += data.label(r) > 0.5f ? 1.0 : 0.0;
      }
      double p =
          pos / std::max<double>(1.0, static_cast<double>(data.num_rows()));
      p = std::clamp(p, 1e-6, 1.0 - 1e-6);
      base_score_ = std::log(p / (1.0 - p));
    } else {
      // Regression: base score = label mean.
      double sum = 0.0;
      for (std::size_t r = 0; r < data.num_rows(); ++r) sum += data.label(r);
      base_score_ =
          sum / std::max<double>(1.0, static_cast<double>(data.num_rows()));
    }
    std::fill(scores_.begin(), scores_.end(), base_score_);
  }

  Model run(TrainLog* log) {
    LFO_TRACE_SPAN("gbdt_train");
    std::vector<Tree> trees;
    trees.reserve(params_.num_iterations);
    double best_valid = std::numeric_limits<double>::infinity();
    std::uint32_t best_iteration = 0;
    for (std::uint32_t iter = 0; iter < params_.num_iterations; ++iter) {
      LFO_TRACE_SPAN("boost_round");
      LFO_COUNTER_INC("lfo_gbdt_boost_rounds_total");
      compute_gradients();
      trees.push_back(grow_tree());
      if (log) log->train_logloss.push_back(current_logloss(/*valid=*/false));
      if (params_.early_stopping_rounds > 0) {
        const double valid_loss = current_logloss(/*valid=*/true);
        if (log) log->valid_logloss.push_back(valid_loss);
        if (valid_loss < best_valid - 1e-12) {
          best_valid = valid_loss;
          best_iteration = iter;
        } else if (iter - best_iteration >= params_.early_stopping_rounds) {
          trees.resize(best_iteration + 1);
          if (log) {
            log->best_iteration = best_iteration;
            log->stopped_early = true;
          }
          break;
        }
      }
    }
    if (log && params_.early_stopping_rounds > 0 && !log->stopped_early) {
      log->best_iteration = best_iteration;
    }
    return Model(base_score_, std::move(trees));
  }

 private:
  void compute_gradients() {
    if (params_.objective == Objective::kBinaryLogistic) {
      run_elementwise(data_.num_rows(), [&](std::size_t r) {
        const double p = sigmoid(scores_[r]);
        const double y = data_.label(r) > 0.5f ? 1.0 : 0.0;
        gradients_[r] = p - y;
        hessians_[r] = std::max(p * (1.0 - p), 1e-12);
      });
    } else {
      // L2: loss = 1/2 (score - y)^2; gradient = residual, hessian = 1.
      run_elementwise(data_.num_rows(), [&](std::size_t r) {
        gradients_[r] = scores_[r] - static_cast<double>(data_.label(r));
        hessians_[r] = 1.0;
      });
    }
  }

  /// Mean loss (logloss or squared error, per objective) over the
  /// training or validation partition (the whole dataset when early
  /// stopping is off).
  double current_logloss(bool valid) const {
    double loss = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < data_.num_rows(); ++r) {
      if (!is_valid_.empty() && (is_valid_[r] != 0) != valid) continue;
      if (params_.objective == Objective::kBinaryLogistic) {
        const double p =
            std::clamp(sigmoid(scores_[r]), 1e-15, 1.0 - 1e-15);
        const double y = data_.label(r) > 0.5f ? 1.0 : 0.0;
        loss -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
      } else {
        const double d = scores_[r] - static_cast<double>(data_.label(r));
        loss += 0.5 * d * d;
      }
      ++count;
    }
    return loss / std::max<double>(1.0, static_cast<double>(count));
  }

  std::vector<std::int32_t> sample_features() {
    const auto total = static_cast<std::int32_t>(data_.num_features());
    std::vector<std::int32_t> all(static_cast<std::size_t>(total));
    std::iota(all.begin(), all.end(), 0);
    if (params_.feature_fraction >= 1.0) return all;
    const auto want = std::max<std::size_t>(
        1, static_cast<std::size_t>(params_.feature_fraction *
                                    static_cast<double>(total)));
    // Partial Fisher-Yates.
    for (std::size_t i = 0; i < want; ++i) {
      const auto j = i + rng_.uniform(all.size() - i);
      std::swap(all[i], all[j]);
    }
    all.resize(want);
    return all;
  }

  std::vector<std::uint32_t> sample_rows() {
    const auto n = data_.num_rows();
    std::vector<std::uint32_t> rows;
    const bool bag = params_.bagging_fraction < 1.0;
    rows.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!is_valid_.empty() && is_valid_[r]) continue;  // held out
      // Bernoulli sampling keeps rows ordered, which the partitioning
      // does not require but keeps runs deterministic.
      if (bag && !rng_.bernoulli(params_.bagging_fraction)) continue;
      rows.push_back(r);
    }
    if (rows.empty()) {
      rows.push_back(static_cast<std::uint32_t>(rng_.uniform(n)));
    }
    return rows;
  }

  /// Histogram + best split of a single feature over one leaf's rows.
  /// Pure w.r.t. trainer state (reads gradients/hessians/binning only),
  /// so features can be evaluated concurrently; for a fixed feature the
  /// result is independent of which thread runs it (same accumulation
  /// order over `rows`).
  SplitInfo best_split_for_feature(std::int32_t f,
                                   std::span<const std::uint32_t> rows,
                                   double sum_g, double sum_h) const {
    SplitInfo best;
    best.gain = params_.min_split_gain;
    const double parent_obj = objective(sum_g, sum_h);
    const auto& fb = binned_.feature_bins(static_cast<std::size_t>(f));
    const std::uint32_t bins = fb.num_bins();
    if (bins < 2) return best;  // constant feature
    thread_local Histogram hist;
    hist.clear(bins);
    const auto column = binned_.column(static_cast<std::size_t>(f));
    for (const auto r : rows) {
      const std::uint8_t b = column[r];
      hist.sum_g[b] += gradients_[r];
      hist.sum_h[b] += hessians_[r];
      hist.count[b] += 1;
    }
#if LFO_DEBUG_CHECKS
    // Every row of the leaf must land in exactly one bin; a mismatch
    // means the binning index and the row partition have diverged.
    std::uint64_t binned_rows = 0;
    for (std::uint32_t b = 0; b < bins; ++b) binned_rows += hist.count[b];
    LFO_CHECK_EQ(binned_rows, rows.size())
        << "histogram bin counts do not sum to leaf row count (feature "
        << f << ")";
#endif
    double left_g = 0, left_h = 0;
    std::uint32_t left_count = 0;
    for (std::uint32_t b = 0; b + 1 < bins; ++b) {
      left_g += hist.sum_g[b];
      left_h += hist.sum_h[b];
      left_count += hist.count[b];
      const auto right_count =
          static_cast<std::uint32_t>(rows.size()) - left_count;
      if (left_count < params_.min_data_in_leaf ||
          right_count < params_.min_data_in_leaf) {
        continue;
      }
      const double right_g = sum_g - left_g;
      const double right_h = sum_h - left_h;
      const double gain =
          objective(left_g, left_h) + objective(right_g, right_h) -
          parent_obj;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.bin = b;
        best.left_g = left_g;
        best.left_h = left_h;
        best.right_g = right_g;
        best.right_h = right_h;
      }
    }
    return best;
  }

  SplitInfo find_best_split(std::span<const std::uint32_t> rows,
                            std::span<const std::int32_t> features,
                            double sum_g, double sum_h) {
    // Each feature is scored independently (into its own slot), then the
    // winner is reduced strictly in feature order — so the chosen split,
    // including tie-breaks, is identical at any thread count.
    per_feature_.resize(features.size());
    const bool parallel =
        pool_ != nullptr && features.size() > 1 &&
        rows.size() * features.size() >= kParallelSplitMinWork;
    if (parallel) {
      pool_->parallel_for(features.size(), [&](std::size_t fi) {
        per_feature_[fi] =
            best_split_for_feature(features[fi], rows, sum_g, sum_h);
      });
    } else {
      for (std::size_t fi = 0; fi < features.size(); ++fi) {
        per_feature_[fi] =
            best_split_for_feature(features[fi], rows, sum_g, sum_h);
      }
    }
    SplitInfo best;
    best.gain = params_.min_split_gain;
    for (const auto& s : per_feature_) {
      if (s.valid() && s.gain > best.gain) best = s;
    }
    return best;
  }

  double objective(double g, double h) const {
    return g * g / (h + params_.lambda_l2);
  }

  double output(double g, double h) const {
    return -g / (h + params_.lambda_l2) * params_.learning_rate;
  }

  Tree grow_tree() {
    auto rows = sample_rows();
    const auto features = sample_features();
    const bool bagged = rows.size() != data_.num_rows();

    double root_g = 0, root_h = 0;
    for (const auto r : rows) {
      root_g += gradients_[r];
      root_h += hessians_[r];
    }

    Tree tree(output(root_g, root_h));
    // node -> which rows land there; maintained as slices of `rows`.
    std::priority_queue<LeafTask, std::vector<LeafTask>, GainLess> heap;
    LeafTask root;
    root.node = 0;
    root.begin = 0;
    root.end = rows.size();
    root.sum_g = root_g;
    root.sum_h = root_h;
    root.best = find_best_split({rows.data(), rows.size()}, features, root_g,
                                root_h);
    if (root.best.valid()) heap.push(root);

    std::uint32_t leaves = 1;
    while (leaves < params_.num_leaves && !heap.empty()) {
      LeafTask task = heap.top();
      heap.pop();
      const auto& s = task.best;
      // A split only enters the heap when its gain beats min_split_gain,
      // so with the default non-negative threshold gains stay monotone.
      LFO_DCHECK_GE(s.gain, params_.min_split_gain)
          << "split with sub-threshold gain escaped pruning";
      // Gradient mass is conserved across the split.
      LFO_DCHECK_LE(std::abs(s.left_g + s.right_g - task.sum_g),
                    1e-6 * (1.0 + std::abs(task.sum_g)))
          << "split lost gradient mass";
      // Partition rows of this leaf by the chosen split.
      const auto column =
          binned_.column(static_cast<std::size_t>(s.feature));
      auto mid_it = std::stable_partition(
          rows.begin() + static_cast<std::ptrdiff_t>(task.begin),
          rows.begin() + static_cast<std::ptrdiff_t>(task.end),
          [&](std::uint32_t r) { return column[r] <= s.bin; });
      const auto mid =
          static_cast<std::size_t>(mid_it - rows.begin());

      const float threshold = binned_.split_value(
          static_cast<std::size_t>(s.feature), s.bin);
      const auto children = tree.split_leaf(
          task.node, s.feature, threshold, output(s.left_g, s.left_h),
          output(s.right_g, s.right_h));
      ++leaves;

      if (task.depth + 1 < params_.max_depth || params_.max_depth < 0) {
        LeafTask left;
        left.node = children.left;
        left.begin = task.begin;
        left.end = mid;
        left.sum_g = s.left_g;
        left.sum_h = s.left_h;
        left.depth = task.depth + 1;
        left.best = find_best_split(
            {rows.data() + left.begin, left.end - left.begin}, features,
            left.sum_g, left.sum_h);
        if (left.best.valid()) heap.push(left);

        LeafTask right;
        right.node = children.right;
        right.begin = mid;
        right.end = task.end;
        right.sum_g = s.right_g;
        right.sum_h = s.right_h;
        right.depth = task.depth + 1;
        right.best = find_best_split(
            {rows.data() + right.begin, right.end - right.begin}, features,
            right.sum_g, right.sum_h);
        if (right.best.valid()) heap.push(right);
      }
    }

    // Update scores. Bagged-out rows still need their score refreshed so
    // future gradients see every tree. Each element is computed
    // independently, so the parallel path is bitwise-deterministic.
    if (bagged) {
      run_elementwise(data_.num_rows(), [&](std::size_t r) {
        scores_[r] += tree.predict(data_.row(r));
      });
    } else {
      run_elementwise(rows.size(), [&](std::size_t i) {
        const auto r = rows[i];
        scores_[r] += tree.predict(data_.row(r));
      });
    }
    return tree;
  }

  /// Run fn(i) for i in [0, n), on the pool when one is attached and the
  /// job is big enough. fn must write only to index-i state.
  template <typename F>
  void run_elementwise(std::size_t n, F&& fn) {
    if (pool_ != nullptr && n >= kParallelSplitMinWork) {
      pool_->parallel_for(n, fn);
    } else {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
  }

  /// Minimum rows*features of a leaf before the per-feature fan-out (or
  /// an elementwise loop) is worth the pool's task overhead. Purely a
  /// performance knob: results are identical either way.
  static constexpr std::size_t kParallelSplitMinWork = 8192;

  const Dataset& data_;
  const Params& params_;
  util::ThreadPool* pool_;
  BinnedDataset binned_;
  util::Rng rng_;
  double base_score_ = 0.0;
  std::vector<double> scores_;
  std::vector<double> gradients_;
  std::vector<double> hessians_;
  std::vector<std::uint8_t> is_valid_;  // early-stopping holdout mask
  std::vector<SplitInfo> per_feature_;  // slot per candidate feature
};

}  // namespace

Model train(const Dataset& data, const Params& params, TrainLog* log,
            util::ThreadPool* pool) {
  if (data.num_rows() == 0) {
    throw std::invalid_argument("train: empty dataset");
  }
  if (params.num_leaves < 2) {
    throw std::invalid_argument("train: num_leaves must be >= 2");
  }
  // An externally supplied pool wins; otherwise spin one up when the
  // caller asked for threads. The pool only affects wall-clock, never the
  // trained model (deterministic per-feature reduction).
  std::unique_ptr<util::ThreadPool> owned;
  if (pool == nullptr && params.num_threads != 1) {
    const auto threads =
        params.num_threads != 0
            ? params.num_threads
            : std::max(1u, std::thread::hardware_concurrency());
    if (threads > 1) {
      owned = std::make_unique<util::ThreadPool>(threads);
      pool = owned.get();
    }
  }
  Trainer trainer(data, params, pool);
  return trainer.run(log);
}

double logloss(const Model& model, const Dataset& data) {
  if (data.num_rows() == 0) return 0.0;
  std::vector<double> proba(data.num_rows());
  model.predict_proba_batch(data.features_matrix(), data.num_features(),
                            proba);
  double loss = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const double p = std::clamp(proba[r], 1e-15, 1.0 - 1e-15);
    const double y = data.label(r) > 0.5f ? 1.0 : 0.0;
    loss -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
  }
  return loss / static_cast<double>(data.num_rows());
}

double accuracy(const Model& model, const Dataset& data, double cutoff) {
  if (data.num_rows() == 0) return 0.0;
  return confusion(model, data, cutoff).accuracy();
}

util::BinaryConfusion confusion(const Model& model, const Dataset& data,
                                double cutoff) {
  util::BinaryConfusion out;
  if (data.num_rows() == 0) return out;
  std::vector<double> proba(data.num_rows());
  model.predict_proba_batch(data.features_matrix(), data.num_features(),
                            proba);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    out.add(proba[r] >= cutoff, data.label(r) > 0.5f);
  }
  return out;
}

}  // namespace lfo::gbdt
