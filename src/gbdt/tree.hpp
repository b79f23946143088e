#ifndef LFO_GBDT_TREE_HPP
#define LFO_GBDT_TREE_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace lfo::gbdt {

/// Widest feature row a model may split on: the quantized engine packs a
/// split feature into 16 bits. Also the default schema bound of load().
inline constexpr std::size_t kMaxFeatures = std::size_t{1} << 16;

/// One regression tree. Stored as flat arrays for fast, branch-light
/// prediction. Internal node: go left when feature value <= threshold.
class Tree {
 public:
  /// Create a single-leaf tree with the given value.
  explicit Tree(double root_value = 0.0);

  /// Turn leaf `node` into an internal node splitting on (feature,
  /// threshold); returns {left_child, right_child} (both leaves with the
  /// supplied values).
  struct Children {
    std::int32_t left;
    std::int32_t right;
  };
  Children split_leaf(std::int32_t node, std::int32_t feature,
                      float threshold, double left_value, double right_value);

  bool is_leaf(std::int32_t node) const { return left_[node] < 0; }
  std::int32_t num_nodes() const {
    return static_cast<std::int32_t>(left_.size());
  }
  std::int32_t num_leaves() const;
  std::int32_t split_feature(std::int32_t node) const {
    return feature_[node];
  }
  /// Children of an internal node (undefined on leaves, where left_ < 0).
  std::int32_t left_child(std::int32_t node) const { return left_[node]; }
  std::int32_t right_child(std::int32_t node) const { return right_[node]; }
  float threshold(std::int32_t node) const { return threshold_[node]; }
  double leaf_value(std::int32_t node) const { return value_[node]; }
  void set_leaf_value(std::int32_t node, double v) { value_[node] = v; }

  /// Raw score contribution of this tree for one sample.
  double predict(std::span<const float> features) const;

  /// Leaf index the sample falls into.
  std::int32_t predict_leaf(std::span<const float> features) const;

  /// Accumulate, per feature, how many internal nodes split on it
  /// (the paper's Fig 8 feature-importance measure).
  void add_split_counts(std::vector<std::uint64_t>& counts) const;

  void save(std::ostream& os) const;
  /// Largest node count load() accepts.
  static constexpr std::size_t kMaxLoadNodes = std::size_t{1} << 16;
  /// Read a tree written by save(). Model files are untrusted input, so
  /// this throws std::runtime_error unless the node count is in
  /// [1, kMaxLoadNodes], every node is reached exactly once from the root
  /// through in-range child indices, every split feature lies in
  /// [0, num_features), and every split threshold and leaf value is
  /// finite.
  static Tree load(std::istream& is, std::size_t num_features = kMaxFeatures);

 private:
  // Node arrays; left_[i] < 0 marks a leaf.
  std::vector<std::int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> value_;  // leaf value (unused on internal nodes)
};

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_TREE_HPP
