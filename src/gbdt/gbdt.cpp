#include "gbdt/gbdt.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
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

/// Gradient/hessian sums and row count of one histogram bin.
struct BinStats {
  double sum_g = 0.0;
  double sum_h = 0.0;
  std::uint32_t count = 0;
};

/// Candidate features whose histograms one pass over a leaf fills.
constexpr std::size_t kFeatureBlock = 16;

/// One row's gradient and hessian, gathered in leaf order.
struct GradPair {
  double g = 0.0;
  double h = 0.0;
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

  Model run(std::vector<double>* raw_scores) {
    LFO_TRACE_SPAN("gbdt_train");
    std::vector<Tree> trees;
    trees.reserve(params_.num_iterations);
    for (std::uint32_t iter = 0; iter < params_.num_iterations; ++iter) {
      LFO_TRACE_SPAN("boost_round");
      LFO_COUNTER_INC("lfo_gbdt_boost_rounds_total");
      compute_gradients();
      trees.push_back(grow_tree());
    }
    if (raw_scores != nullptr) *raw_scores = std::move(scores_);
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

  /// Best split of feature `f` given its histogram over one leaf's rows.
  SplitInfo best_split_in_histogram(std::int32_t f, const BinStats* hist,
                                    std::uint32_t bins, std::size_t leaf_rows,
                                    double sum_g, double sum_h) const {
    SplitInfo best;  // only a positive gain splits
    const double parent_obj = objective(sum_g, sum_h);
#if LFO_DEBUG_CHECKS
    // Every row of the leaf must land in exactly one bin; a mismatch
    // means the binning index and the row partition have diverged.
    std::uint64_t binned_rows = 0;
    for (std::uint32_t b = 0; b < bins; ++b) binned_rows += hist[b].count;
    LFO_CHECK_EQ(binned_rows, leaf_rows)
        << "histogram bin counts do not sum to leaf row count (feature "
        << f << ")";
#endif
    double left_g = 0, left_h = 0;
    std::uint32_t left_count = 0;
    for (std::uint32_t b = 0; b + 1 < bins; ++b) {
      left_g += hist[b].sum_g;
      left_h += hist[b].sum_h;
      left_count += hist[b].count;
      const auto right_count =
          static_cast<std::uint32_t>(leaf_rows) - left_count;
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

  /// One pass over a leaf's rows adding each row's (g, h) pair to its bin
  /// in `hist[j]`, the histogram of feature `column[j]`, for the block's
  /// `width` features.
  void fill_block(std::span<const std::uint32_t> rows,
                  const std::array<std::size_t, kFeatureBlock>& column,
                  const std::array<BinStats*, kFeatureBlock>& hist,
                  std::size_t width) const {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::uint8_t* bins = binned_.row(rows[i]);
      const GradPair gh = leaf_gh_[i];
      for (std::size_t j = 0; j < width; ++j) {
        BinStats& c = hist[j][bins[column[j]]];
        c.sum_g += gh.g;
        c.sum_h += gh.h;
        c.count += 1;
      }
    }
  }

  /// Histograms of block `block` of the candidate features over one
  /// leaf's rows, filled in one pass, then each feature's best split into
  /// its per_feature_ slot. Every (feature, bin) sum still adds its rows
  /// in leaf order, so the sums are those of a one-feature-at-a-time
  /// pass, bit for bit; the block only gives the CPU kFeatureBlock
  /// independent cells per row instead of a chain of adds to one cell.
  /// Writes only its own slots, so blocks can run concurrently.
  void split_block(std::size_t block, std::span<const std::uint32_t> rows,
                   std::span<const std::int32_t> features, double sum_g,
                   double sum_h) {
    const std::size_t first = block * kFeatureBlock;
    const std::size_t width =
        std::min(kFeatureBlock, searched_.size() - first);
    std::array<std::size_t, kFeatureBlock> column{};    // feature id
    std::array<std::uint32_t, kFeatureBlock> num_bins{};
    std::size_t cells = 0;
    for (std::size_t j = 0; j < width; ++j) {
      column[j] = static_cast<std::size_t>(features[searched_[first + j]]);
      num_bins[j] = binned_.feature_bins(column[j]).num_bins();
      cells += num_bins[j];
    }
    thread_local std::vector<BinStats> storage;
    storage.assign(cells, BinStats{});
    std::array<BinStats*, kFeatureBlock> hist{};  // each feature's bins
    hist[0] = storage.data();
    for (std::size_t j = 1; j < width; ++j) {
      hist[j] = hist[j - 1] + num_bins[j - 1];
    }
    fill_block(rows, column, hist, width);
    for (std::size_t j = 0; j < width; ++j) {
      per_feature_[searched_[first + j]] = best_split_in_histogram(
          static_cast<std::int32_t>(column[j]), hist[j], num_bins[j],
          rows.size(), sum_g, sum_h);
    }
  }

  SplitInfo find_best_split(std::span<const std::uint32_t> rows,
                            std::span<const std::int32_t> features,
                            double sum_g, double sum_h) {
    SplitInfo best;
    // Both sides of a split need min_data_in_leaf rows.
    if (rows.size() < 2 * std::size_t{params_.min_data_in_leaf}) return best;
    leaf_gh_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      leaf_gh_[i] = {gradients_[rows[i]], hessians_[rows[i]]};
    }
    // Each feature is scored independently (into its own slot), then the
    // winner is reduced strictly in candidate order — so the chosen
    // split, including tie-breaks, is identical at any thread count.
    // Constant features keep an invalid slot.
    per_feature_.assign(features.size(), SplitInfo{});
    const std::size_t blocks =
        (searched_.size() + kFeatureBlock - 1) / kFeatureBlock;
    const auto run = [&](std::size_t block) {
      split_block(block, rows, features, sum_g, sum_h);
    };
    if (pool_ != nullptr && blocks > 1 &&
        rows.size() * features.size() >= kParallelSplitMinWork) {
      pool_->parallel_for(blocks, run);
    } else {
      for (std::size_t block = 0; block < blocks; ++block) run(block);
    }
    for (const auto& s : per_feature_) {
      if (s.valid() && s.gain > best.gain) best = s;
    }
    return best;
  }

  double objective(double g, double h) const { return g * g / h; }

  double output(double g, double h) const {
    return -g / h * params_.learning_rate;
  }

  Tree grow_tree() {
    auto rows = sample_rows();
    const auto features = sample_features();
    const bool bagged = rows.size() != data_.num_rows();
    searched_.clear();
    for (std::size_t fi = 0; fi < features.size(); ++fi) {
      const auto f = static_cast<std::size_t>(features[fi]);
      if (binned_.feature_bins(f).num_bins() >= 2) searched_.push_back(fi);
    }

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
      // A split only enters the heap when its gain is positive.
      LFO_DCHECK_GT(s.gain, 0.0)
          << "split with non-positive gain escaped pruning";
      // Gradient mass is conserved across the split.
      LFO_DCHECK_LE(std::abs(s.left_g + s.right_g - task.sum_g),
                    1e-6 * (1.0 + std::abs(task.sum_g)))
          << "split lost gradient mass";
      const float threshold = binned_.split_value(
          static_cast<std::size_t>(s.feature), s.bin);
      const auto children = tree.split_leaf(
          task.node, s.feature, threshold, output(s.left_g, s.left_h),
          output(s.right_g, s.right_h));
      ++leaves;
      // The last split's children are never popped: the tree is full.
      if (leaves == params_.num_leaves) break;

      // Partition rows of this leaf by the chosen split.
      const auto f = static_cast<std::size_t>(s.feature);
      auto mid_it = std::stable_partition(
          rows.begin() + static_cast<std::ptrdiff_t>(task.begin),
          rows.begin() + static_cast<std::ptrdiff_t>(task.end),
          [&](std::uint32_t r) { return binned_.bin(r, f) <= s.bin; });
      const auto mid = static_cast<std::size_t>(mid_it - rows.begin());

      LeafTask left;
      left.node = children.left;
      left.begin = task.begin;
      left.end = mid;
      left.sum_g = s.left_g;
      left.sum_h = s.left_h;
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
      right.best = find_best_split(
          {rows.data() + right.begin, right.end - right.begin}, features,
          right.sum_g, right.sum_h);
      if (right.best.valid()) heap.push(right);
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
  std::vector<SplitInfo> per_feature_;  // slot per candidate feature
  std::vector<std::size_t> searched_;   // candidates with >= 2 bins
  std::vector<GradPair> leaf_gh_;       // the leaf being searched
};

}  // namespace

Model train(const Dataset& data, const Params& params,
            util::ThreadPool* pool, std::vector<double>* raw_scores) {
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
  return trainer.run(raw_scores);
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
  std::vector<double> raw(data.num_rows());
  model.predict_raw_batch(data.features_matrix(), data.num_features(), raw);
  return confusion(raw, data, cutoff);
}

util::BinaryConfusion confusion(std::span<const double> raw_scores,
                                const Dataset& data, double cutoff) {
  LFO_CHECK_EQ(raw_scores.size(), data.num_rows())
      << "confusion: one raw score per row";
  util::BinaryConfusion out;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    out.add(sigmoid(raw_scores[r]) >= cutoff, data.label(r) > 0.5f);
  }
  return out;
}

}  // namespace lfo::gbdt
