#include "gbdt/quantized_forest.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "gbdt/quantized_kernels.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace lfo::gbdt {

namespace {

constexpr std::uint32_t kLeafCut = 0xFFFFu;     // above every bin index
constexpr std::size_t kMaxCutsPerFeature = 0xFFFFu - 1;  // cut < kLeafCut

// Perfect-layout padding dummy: feature 0, cut 0xFFFF — no bin index
// exceeds the cut, so the walk always steps left through padded levels.
constexpr std::uint32_t kAlwaysLeftFc = kLeafCut;
// Levels 0-4 (nodes 0..30) of each tree are looked up via in-register
// vpermd tables — vector loads at fc, fc+7, fc+15 and fc+23 — so every
// per-tree fc region is at least this long.
constexpr std::size_t kMinCompleteFcWords = 31;
// Skip the perfect layout when padding would blow the forest up beyond
// this many leaf-layer slots (2^depth per tree): the gather kernel's
// working set would fall out of cache and a >16-deep tree overflows the
// int32 heap index math anyway. Such forests take the scalar kernel.
constexpr int kMaxCompleteDepth = 16;
constexpr std::size_t kMaxCompleteLeaves = std::size_t{1} << 18;

/// Recursively fill tree t's perfect-layout region: `pos` is the heap
/// position (children 2*pos+1 / 2*pos+2), `depth_left` the levels still
/// to descend before the leaf layer of a depth-`depth` tree. Shallow
/// leaves propagate themselves down both padded children so the whole
/// padded subtree's leaf layer carries the real leaf value. The high
/// half of each fc word stores the feature index PRE-SCALED by
/// `row_bytes`, so the kernel's bin-byte offset is a plain 16-bit shift
/// of the word — no extra per-level multiply/shift on the hot path.
void fill_complete(const Tree& tree, const std::vector<FeatureBins>& cuts,
                   std::size_t row_bytes, std::int32_t node,
                   std::size_t pos, int depth_left, int depth,
                   std::uint32_t* fc, double* leaves) {
  if (depth_left == 0) {
    LFO_DCHECK(tree.is_leaf(node))
        << "QuantizedForest::compile: split below the recorded tree depth";
    leaves[pos - ((std::size_t{1} << depth) - 1)] = tree.leaf_value(node);
    return;
  }
  std::int32_t left = node;
  std::int32_t right = node;
  if (!tree.is_leaf(node)) {
    const auto f = static_cast<std::size_t>(tree.split_feature(node));
    const auto& bounds = cuts[f].upper_bounds;
    const auto cut = static_cast<std::uint32_t>(
        std::lower_bound(bounds.begin(), bounds.end(),
                         tree.threshold(node)) -
        bounds.begin());
    fc[pos] =
        (static_cast<std::uint32_t>(f * row_bytes) << 16) | cut;
    left = tree.left_child(node);
    right = tree.right_child(node);
  }  // else: fc[pos] stays the always-left dummy
  fill_complete(tree, cuts, row_bytes, left, 2 * pos + 1, depth_left - 1,
                depth, fc, leaves);
  fill_complete(tree, cuts, row_bytes, right, 2 * pos + 2, depth_left - 1,
                depth, fc, leaves);
}

std::atomic<SimdMode> g_simd_mode{SimdMode::kAuto};

/// LFO_SIMD=scalar|off|0 pins the scalar kernel for the whole process
/// (the CI leg in tools/run_static_checks.sh uses this). Read once.
bool env_forces_scalar() {
  static const bool forced = [] {
    const char* v = std::getenv("LFO_SIMD");
    if (v == nullptr) return false;
    return std::strcmp(v, "scalar") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "0") == 0;
  }();
  return forced;
}

bool cpu_has_avx2() {
#if defined(LFO_HAVE_AVX2) && (defined(__x86_64__) || defined(_M_X64))
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool use_simd() {
  return g_simd_mode.load(std::memory_order_relaxed) == SimdMode::kAuto &&
         !env_forces_scalar();
}

}  // namespace

void set_simd_mode(SimdMode mode) {
  g_simd_mode.store(mode, std::memory_order_relaxed);
}

SimdMode simd_mode() { return g_simd_mode.load(std::memory_order_relaxed); }

const char* active_simd_kernel() {
  if (!use_simd()) return "scalar";
  return cpu_has_avx2() ? "avx2" : "scalar";
}

QuantizedForest QuantizedForest::compile(const Model& model,
                                         std::size_t num_features) {
  LFO_CHECK_GT(num_features, 0u)
      << "QuantizedForest::compile: zero-width feature rows";
  LFO_CHECK_LE(num_features, kMaxFeatures)
      << "QuantizedForest::compile: feature id must pack into 16 bits";
  QuantizedForest forest;
  forest.base_score_ = model.base_score();
  forest.num_features_ = num_features;
  const std::size_t num_trees = model.num_trees();
  forest.roots_.resize(num_trees);
  forest.depths_.resize(num_trees);

  // Per-feature cut tables: the sorted distinct split thresholds — the
  // histogram bin boundaries the trainer emitted as split values. A
  // node's float threshold becomes its index in the table, and bin_for
  // (= #{boundaries < v}) preserves every comparison: v <= t_j iff
  // bin_for(v) <= j.
  forest.cuts_.resize(num_features);
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = model.tree(t);
    for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
      if (tree.is_leaf(node)) continue;
      const auto f = static_cast<std::size_t>(tree.split_feature(node));
      LFO_CHECK_LT(f, num_features)
          << "QuantizedForest::compile: split feature outside the schema";
      forest.cuts_[f].upper_bounds.push_back(tree.threshold(node));
    }
  }
  std::size_t max_cuts = 0;
  for (auto& bins : forest.cuts_) {
    auto& cuts = bins.upper_bounds;
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    LFO_CHECK_LE(cuts.size(), kMaxCutsPerFeature)
        << "QuantizedForest::compile: cut index must pack into 16 bits";
    max_cuts = std::max(max_cuts, cuts.size());
  }
  // Bin indices reach table size (value above every boundary), so uint8
  // rows need every table to stay <= 255 entries.
  forest.row_bytes_ = max_cuts <= 0xFF ? 1 : 2;

  // Flattened 8-padded copies of the cut tables for the branchless
  // quantizers (+inf padding never counts as `< v`).
  forest.qoffset_.resize(num_features);
  forest.qcount_.resize(num_features);
  forest.qsize_.resize(num_features);
  for (std::size_t f = 0; f < num_features; ++f) {
    const auto& bounds = forest.cuts_[f].upper_bounds;
    const std::size_t padded = (bounds.size() + 7) & ~std::size_t{7};
    forest.qoffset_[f] = static_cast<std::uint32_t>(forest.qbounds_.size());
    forest.qcount_[f] = static_cast<std::uint32_t>(padded);
    forest.qsize_[f] = static_cast<std::uint32_t>(bounds.size());
    forest.qbounds_.insert(forest.qbounds_.end(), bounds.begin(),
                           bounds.end());
    forest.qbounds_.resize(forest.qbounds_.size() +
                               (padded - bounds.size()),
                           std::numeric_limits<float>::infinity());
  }

  // Slot assignment mirrors FlatForest::compile — level-interleaved
  // across trees so the hot top-of-tree nodes share cache lines, sibling
  // pairs adjacent so one child index encodes both.
  std::vector<std::vector<std::vector<std::int32_t>>> levels(num_trees);
  std::size_t total_nodes = 0;
  std::size_t max_levels = 0;
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = model.tree(t);
    total_nodes += static_cast<std::size_t>(tree.num_nodes());
    auto& tree_levels = levels[t];
    tree_levels.push_back({0});
    for (std::size_t d = 0; d < tree_levels.size(); ++d) {
      std::vector<std::int32_t> next;
      for (const auto node : tree_levels[d]) {
        if (tree.is_leaf(node)) continue;
        next.push_back(tree.left_child(node));
        next.push_back(tree.right_child(node));
      }
      if (!next.empty()) tree_levels.push_back(std::move(next));
    }
    forest.depths_[t] = static_cast<std::int32_t>(tree_levels.size()) - 1;
    max_levels = std::max(max_levels, tree_levels.size());
  }

  std::vector<std::vector<std::int32_t>> slot(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    slot[t].assign(static_cast<std::size_t>(model.tree(t).num_nodes()), -1);
  }
  std::int32_t next_slot = 0;
  for (std::size_t d = 0; d < max_levels; ++d) {
    for (std::size_t t = 0; t < num_trees; ++t) {
      if (d >= levels[t].size()) continue;
      for (const auto node : levels[t][d]) {
        slot[t][static_cast<std::size_t>(node)] = next_slot++;
      }
    }
  }
  LFO_CHECK_EQ(static_cast<std::size_t>(next_slot), total_nodes)
      << "QuantizedForest::compile: slot assignment missed nodes";

  forest.left_.resize(total_nodes);
  forest.featcut_.resize(total_nodes);
  forest.values_.assign(total_nodes, 0.0);
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree& tree = model.tree(t);
    forest.roots_[t] = slot[t][0];
    for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
      const auto s = static_cast<std::size_t>(
          slot[t][static_cast<std::size_t>(node)]);
      if (tree.is_leaf(node)) {
        forest.left_[s] = static_cast<std::int32_t>(s);
        forest.featcut_[s] = kLeafCut;
        forest.values_[s] = tree.leaf_value(node);
      } else {
        forest.left_[s] =
            slot[t][static_cast<std::size_t>(tree.left_child(node))];
        const auto f = static_cast<std::size_t>(tree.split_feature(node));
        const auto& cuts = forest.cuts_[f].upper_bounds;
        const auto cut = static_cast<std::uint32_t>(
            std::lower_bound(cuts.begin(), cuts.end(),
                             tree.threshold(node)) -
            cuts.begin());
        LFO_DCHECK(cut < cuts.size() && cuts[cut] == tree.threshold(node))
            << "QuantizedForest::compile: threshold missing from cut table";
        forest.featcut_[s] =
            (static_cast<std::uint32_t>(f) << 16) | cut;
        LFO_DCHECK_EQ(
            forest.left_[s] + 1,
            slot[t][static_cast<std::size_t>(tree.right_child(node))])
            << "QuantizedForest::compile: sibling pair not adjacent";
      }
    }
  }

  // Perfect (heap-order) layout for the hot AVX2 kernel — see
  // detail::QuantCompleteView. Padding is exponential in depth, so cap it
  // and let pathologically deep forests take the scalar kernel.
  bool complete_ok =
      num_features == 0 ||
      (num_features - 1) * forest.row_bytes_ <= 0xFFFF;  // prescale packs
  std::size_t total_fc = 0;
  std::size_t total_leaves = 0;
  for (std::size_t t = 0; t < num_trees; ++t) {
    const int d = forest.depths_[t];
    if (d > kMaxCompleteDepth) {
      complete_ok = false;
      break;
    }
    total_fc += std::max((std::size_t{1} << d) - 1, kMinCompleteFcWords);
    total_leaves += std::size_t{1} << d;
  }
  forest.complete_ok_ = complete_ok && total_leaves <= kMaxCompleteLeaves;
  if (forest.complete_ok_) {
    forest.complete_fc_.assign(total_fc, kAlwaysLeftFc);
    forest.complete_leaf_values_.resize(total_leaves);
    forest.complete_fc_base_.resize(num_trees);
    forest.complete_leaf_base_.resize(num_trees);
    std::size_t fc_at = 0;
    std::size_t leaf_at = 0;
    for (std::size_t t = 0; t < num_trees; ++t) {
      const int d = forest.depths_[t];
      forest.complete_fc_base_[t] = static_cast<std::uint32_t>(fc_at);
      forest.complete_leaf_base_[t] = static_cast<std::uint32_t>(leaf_at);
      fill_complete(model.tree(t), forest.cuts_, forest.row_bytes_, 0, 0,
                    d, d, forest.complete_fc_.data() + fc_at,
                    forest.complete_leaf_values_.data() + leaf_at);
      fc_at += std::max((std::size_t{1} << d) - 1, kMinCompleteFcWords);
      leaf_at += std::size_t{1} << d;
    }
  }
  return forest;
}

std::int32_t QuantizedForest::max_depth() const {
  std::int32_t deepest = 0;
  for (const auto d : depths_) deepest = std::max(deepest, d);
  return deepest;
}

std::size_t QuantizedForest::total_levels() const {
  std::size_t sum = 0;
  for (const auto d : depths_) sum += static_cast<std::size_t>(d);
  return sum;
}

template <typename Bin>
LFO_HOT_PATH void QuantizedForest::quantize_rows(const float* matrix,
                                                 std::size_t rows,
                                                 std::uint8_t* out) const {
  auto* bins = reinterpret_cast<Bin*>(out);
  const float* const qbounds = qbounds_.data();
  const std::uint32_t* const qoffset = qoffset_.data();
  const std::uint32_t* const qcount = qcount_.data();
  const std::size_t cols = num_features_;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* const row = matrix + r * cols;
    Bin* const dst = bins + r * cols;
    for (std::size_t f = 0; f < cols; ++f) {
      // Branchless count over the padded table == the lower_bound index
      // (the tables are sorted and the +inf padding never compares less);
      // the compiler is free to auto-vectorize this reduction.
      const float v = row[f];
      const float* const bounds = qbounds + qoffset[f];
      std::uint32_t bin = 0;
      for (std::uint32_t k = 0, n = qcount[f]; k < n; ++k) {
        bin += bounds[k] < v ? 1u : 0u;
      }
      dst[f] = static_cast<Bin>(bin);
    }
  }
}

LFO_HOT_PATH void QuantizedForest::quantize(
    std::span<const float> matrix, std::size_t rows,
    std::vector<std::uint8_t>& scratch) const {
  LFO_DCHECK_EQ(matrix.size(), rows * num_features_)
      << "QuantizedForest::quantize: matrix shape mismatch";
  const std::size_t needed = rows * num_features_ * row_bytes_ + kGatherPad;
  if (scratch.size() < needed) {
    // lfo-lint: allow(hotpath): grow-once scratch sizing, warm calls never allocate
    scratch.resize(needed);
  }
#if defined(LFO_HAVE_AVX2)
  if (use_simd() && cpu_has_avx2()) {
    if (row_bytes_ == 1) {
      detail::quantize_rows_avx2_u8(matrix.data(), rows, num_features_,
                                    qbounds_.data(), qoffset_.data(),
                                    qcount_.data(), qsize_.data(),
                                    scratch.data());
    } else {
      detail::quantize_rows_avx2_u16(
          matrix.data(), rows, num_features_, qbounds_.data(),
          qoffset_.data(), qcount_.data(), qsize_.data(),
          reinterpret_cast<std::uint16_t*>(scratch.data()));
    }
    return;
  }
#endif
  if (row_bytes_ == 1) {
    quantize_rows<std::uint8_t>(matrix.data(), rows, scratch.data());
  } else {
    quantize_rows<std::uint16_t>(matrix.data(), rows, scratch.data());
  }
}

template <typename Bin>
LFO_HOT_PATH double QuantizedForest::predict_row_binned(
    const Bin* bins) const {
  double score = base_score_;
  const std::int32_t* const left = left_.data();
  const std::uint32_t* const featcut = featcut_.data();
  const std::int32_t* const depths = depths_.data();
  const std::size_t num_trees = roots_.size();
  std::size_t t = 0;
  // Four independent tree chains per iteration: the loads of one chain
  // overlap the compare/step latency of the others (same ILP trick as
  // FlatForest::predict_raw). Leaves self-loop, so running every chain
  // for the deepest chain's depth is harmless, and values are still
  // added in tree order — bitwise identical to the one-tree-at-a-time
  // walk.
  for (; t + 4 <= num_trees; t += 4) {
    std::int32_t u0 = roots_[t];
    std::int32_t u1 = roots_[t + 1];
    std::int32_t u2 = roots_[t + 2];
    std::int32_t u3 = roots_[t + 3];
    const std::int32_t dmax =
        std::max(std::max(depths[t], depths[t + 1]),
                 std::max(depths[t + 2], depths[t + 3]));
    for (std::int32_t d = dmax; d > 0; --d) {
      const std::uint32_t fc0 = featcut[u0];
      const std::uint32_t fc1 = featcut[u1];
      const std::uint32_t fc2 = featcut[u2];
      const std::uint32_t fc3 = featcut[u3];
      u0 = left[u0] + static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(bins[fc0 >> 16]) >
                          (fc0 & 0xFFFFu));
      u1 = left[u1] + static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(bins[fc1 >> 16]) >
                          (fc1 & 0xFFFFu));
      u2 = left[u2] + static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(bins[fc2 >> 16]) >
                          (fc2 & 0xFFFFu));
      u3 = left[u3] + static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(bins[fc3 >> 16]) >
                          (fc3 & 0xFFFFu));
    }
    score += values_[static_cast<std::size_t>(u0)];
    score += values_[static_cast<std::size_t>(u1)];
    score += values_[static_cast<std::size_t>(u2)];
    score += values_[static_cast<std::size_t>(u3)];
  }
  for (; t < num_trees; ++t) {
    std::int32_t u = roots_[t];
    for (std::int32_t d = depths[t]; d > 0; --d) {
      const std::uint32_t fc = featcut[u];
      u = left[u] + static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(bins[fc >> 16]) >
                        (fc & 0xFFFFu));
    }
    score += values_[static_cast<std::size_t>(u)];
  }
  return score;
}

LFO_HOT_PATH double QuantizedForest::predict_raw(
    std::span<const float> features,
    std::vector<std::uint8_t>& scratch) const {
  LFO_DCHECK_EQ(features.size(), num_features_)
      << "QuantizedForest::predict_raw: feature width mismatch";
  quantize(features, 1, scratch);
  if (row_bytes_ == 1) {
    return predict_row_binned<std::uint8_t>(scratch.data());
  }
  return predict_row_binned<std::uint16_t>(
      reinterpret_cast<const std::uint16_t*>(scratch.data()));
}

LFO_HOT_PATH double QuantizedForest::predict_proba(
    std::span<const float> features,
    std::vector<std::uint8_t>& scratch) const {
  return sigmoid(predict_raw(features, scratch));
}

template <typename Bin>
LFO_HOT_PATH void QuantizedForest::predict_batch_scalar(
    const std::uint8_t* bins, std::size_t rows, double* out) const {
  constexpr std::size_t kBlockRows = 64;
  const auto* const binned = reinterpret_cast<const Bin*>(bins);
  const std::int32_t* const left = left_.data();
  const std::uint32_t* const featcut = featcut_.data();
  const std::size_t cols = num_features_;
  std::int32_t cursor[kBlockRows];
  for (std::size_t r0 = 0; r0 < rows; r0 += kBlockRows) {
    const std::size_t block = std::min(kBlockRows, rows - r0);
    const Bin* const block_bins = binned + r0 * cols;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::int32_t root = roots_[t];
      for (std::size_t i = 0; i < block; ++i) cursor[i] = root;
      for (std::int32_t d = depths_[t]; d > 0; --d) {
        std::int32_t moved = 0;
        for (std::size_t i = 0; i < block; ++i) {
          const std::uint32_t fc = featcut[cursor[i]];
          const std::int32_t next =
              left[cursor[i]] +
              static_cast<std::int32_t>(
                  static_cast<std::uint32_t>(
                      block_bins[i * cols + (fc >> 16)]) > (fc & 0xFFFFu));
          moved |= next ^ cursor[i];
          cursor[i] = next;
        }
        if (moved == 0) break;  // every sample of the block is at a leaf
      }
      for (std::size_t i = 0; i < block; ++i) {
        out[r0 + i] += values_[static_cast<std::size_t>(cursor[i])];
      }
    }
  }
}

LFO_HOT_PATH void QuantizedForest::predict_raw_binned(
    const std::uint8_t* bins, std::span<double> out) const {
  std::fill(out.begin(), out.end(), base_score_);
  const std::size_t rows = out.size();
  std::size_t done = 0;
#if defined(LFO_HAVE_AVX2)
  if (complete_ok_ && use_simd() && cpu_has_avx2()) {
    const detail::QuantCompleteView view{
        complete_fc_.data(),      complete_leaf_values_.data(),
        complete_fc_base_.data(), complete_leaf_base_.data(),
        depths_.data(),           roots_.size()};
    done = (row_bytes_ == 1 ? detail::predict_complete_avx2_u8
                            : detail::predict_complete_avx2_u16)(
        view, bins, num_features_ * row_bytes_, out.data(), rows);
  }
#endif
  if (done == rows) return;
  // Scalar kernel for the tail (or the whole batch without the AVX2
  // kernel); it accumulates onto the base-score-filled suffix exactly like
  // the AVX2 kernel, so every row is bitwise independent of the split
  // point.
  const std::size_t row_stride = num_features_ * row_bytes_;
  if (row_bytes_ == 1) {
    predict_batch_scalar<std::uint8_t>(bins + done * row_stride,
                                       rows - done, out.data() + done);
  } else {
    predict_batch_scalar<std::uint16_t>(bins + done * row_stride,
                                        rows - done, out.data() + done);
  }
}

LFO_HOT_PATH void QuantizedForest::predict_raw_batch(
    std::span<const float> matrix, std::size_t num_features,
    std::span<double> out, std::vector<std::uint8_t>& scratch) const {
  LFO_CHECK_GT(num_features, 0u)
      << "QuantizedForest::predict_raw_batch: zero-width rows";
  LFO_CHECK_EQ(num_features, num_features_)
      << "QuantizedForest::predict_raw_batch: schema width mismatch";
  LFO_CHECK_EQ(matrix.size(), out.size() * num_features)
      << "QuantizedForest::predict_raw_batch: matrix/output shape mismatch";
  // Quantize-then-traverse in chunks sized so the bin rows stay
  // L2-resident between the two phases: on large batches a whole-matrix
  // quantize pass would stream megabytes of bins out to memory only to
  // stream them straight back in for traversal. Rows are independent, so
  // chunking cannot change any result; the scratch stays grow-only (it
  // reaches chunk size once and is never reallocated after).
  constexpr std::size_t kChunkRows = 4096;
  const std::size_t rows = out.size();
  for (std::size_t r0 = 0; r0 < rows; r0 += kChunkRows) {
    const std::size_t n = std::min(kChunkRows, rows - r0);
    quantize(matrix.subspan(r0 * num_features, n * num_features), n,
             scratch);
    predict_raw_binned(scratch.data(), out.subspan(r0, n));
  }
}

LFO_HOT_PATH void QuantizedForest::predict_proba_batch(
    std::span<const float> matrix, std::size_t num_features,
    std::span<double> out, std::vector<std::uint8_t>& scratch) const {
  predict_raw_batch(matrix, num_features, out, scratch);
  for (auto& v : out) v = sigmoid(v);
}

}  // namespace lfo::gbdt
