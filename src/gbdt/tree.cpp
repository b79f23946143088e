#include "gbdt/tree.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace lfo::gbdt {

Tree::Tree(double root_value) {
  feature_.push_back(-1);
  threshold_.push_back(0.0f);
  left_.push_back(-1);
  right_.push_back(-1);
  value_.push_back(root_value);
}

Tree::Children Tree::split_leaf(std::int32_t node, std::int32_t feature,
                                float threshold, double left_value,
                                double right_value) {
  if (!is_leaf(node)) {
    throw std::logic_error("Tree::split_leaf: node is not a leaf");
  }
  const auto add_leaf = [this](double v) {
    feature_.push_back(-1);
    threshold_.push_back(0.0f);
    left_.push_back(-1);
    right_.push_back(-1);
    value_.push_back(v);
    return static_cast<std::int32_t>(left_.size()) - 1;
  };
  const std::int32_t l = add_leaf(left_value);
  const std::int32_t r = add_leaf(right_value);
  feature_[node] = feature;
  threshold_[node] = threshold;
  left_[node] = l;
  right_[node] = r;
  return {l, r};
}

std::int32_t Tree::num_leaves() const {
  std::int32_t leaves = 0;
  for (std::size_t i = 0; i < left_.size(); ++i) {
    if (left_[i] < 0) ++leaves;
  }
  return leaves;
}

double Tree::predict(std::span<const float> features) const {
  return value_[predict_leaf(features)];
}

std::int32_t Tree::predict_leaf(std::span<const float> features) const {
  std::int32_t node = 0;
  while (left_[node] >= 0) {
    node = features[static_cast<std::size_t>(feature_[node])] <=
                   threshold_[node]
               ? left_[node]
               : right_[node];
  }
  return node;
}

void Tree::add_split_counts(std::vector<std::uint64_t>& counts) const {
  for (std::size_t i = 0; i < left_.size(); ++i) {
    if (left_[i] >= 0) {
      const auto f = static_cast<std::size_t>(feature_[i]);
      if (f >= counts.size()) counts.resize(f + 1, 0);
      ++counts[f];
    }
  }
}

void Tree::save(std::ostream& os) const {
  // Full round-trip precision for thresholds and leaf values.
  os.precision(17);
  os << left_.size() << '\n';
  for (std::size_t i = 0; i < left_.size(); ++i) {
    os << feature_[i] << ' ' << threshold_[i] << ' ' << left_[i] << ' '
       << right_[i] << ' ' << value_[i] << '\n';
  }
}

Tree Tree::load(std::istream& is, std::size_t num_features) {
  std::size_t n = 0;
  is >> n;
  if (!is || n == 0 || n > kMaxLoadNodes) {
    throw std::runtime_error("Tree::load: bad node count");
  }
  Tree t;
  t.feature_.resize(n);
  t.threshold_.resize(n);
  t.left_.resize(n);
  t.right_.resize(n);
  t.value_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    is >> t.feature_[i] >> t.threshold_[i] >> t.left_[i] >> t.right_[i] >>
        t.value_[i];
  }
  if (!is) throw std::runtime_error("Tree::load: truncated tree");

  // Walk from the root: each node must be reached exactly once, which
  // rules out out-of-range children, cycles, shared and orphan nodes.
  std::vector<char> seen(n, 0);
  std::vector<std::int32_t> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const auto node = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    if (t.left_[node] < 0) {
      if (t.right_[node] >= 0 || !std::isfinite(t.value_[node])) {
        throw std::runtime_error("Tree::load: bad leaf");
      }
      continue;
    }
    const auto feature = t.feature_[node];
    if (feature < 0 || static_cast<std::size_t>(feature) >= num_features) {
      throw std::runtime_error("Tree::load: split feature out of range");
    }
    if (!std::isfinite(t.threshold_[node])) {
      throw std::runtime_error("Tree::load: non-finite threshold");
    }
    for (const auto child : {t.left_[node], t.right_[node]}) {
      if (child < 0 || static_cast<std::size_t>(child) >= n) {
        throw std::runtime_error("Tree::load: child index out of range");
      }
      if (seen[static_cast<std::size_t>(child)]) {
        throw std::runtime_error("Tree::load: node reached twice");
      }
      seen[static_cast<std::size_t>(child)] = 1;
      ++reached;
      stack.push_back(child);
    }
  }
  if (reached != n) {
    throw std::runtime_error("Tree::load: node unreachable from the root");
  }
  return t;
}

}  // namespace lfo::gbdt
