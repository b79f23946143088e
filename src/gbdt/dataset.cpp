#include "gbdt/dataset.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace lfo::gbdt {

Dataset::Dataset(std::size_t num_features) : num_features_(num_features) {
  if (num_features == 0) {
    throw std::invalid_argument("Dataset: need at least one feature");
  }
}

void Dataset::add_row(std::span<const float> features, float label) {
  if (features.size() != num_features_) {
    throw std::invalid_argument("Dataset::add_row: feature count mismatch");
  }
  for (const float v : features) {
    if (std::isnan(v)) {
      throw std::invalid_argument("Dataset::add_row: NaN feature value");
    }
  }
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

void Dataset::reserve(std::size_t rows) {
  features_.reserve(rows * num_features_);
  labels_.reserve(rows);
}

std::uint32_t FeatureBins::bin_for(float value) const {
  // Branchless lower_bound: the number of bounds < value, i.e. the index
  // of the first bound >= value. The answer stays in [base, base + n].
  if (upper_bounds.empty()) return 0;
  const float* base = upper_bounds.data();
  std::size_t n = upper_bounds.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < value ? base + half : base;
    n -= half;
  }
  return static_cast<std::uint32_t>(base - upper_bounds.data()) +
         (*base < value ? 1u : 0u);
}

namespace {

/// Collects the distinct bit patterns of a column into `out` through an
/// open-addressing set, so the sort that follows sees each value once: a
/// gap column is mostly one "missing" value. `table` is scratch whose
/// size is a power of two above twice the column length.
void distinct_values(const Dataset& data, std::size_t col,
                     std::vector<std::uint32_t>& table,
                     std::vector<float>& out) {
  // A NaN pattern: add_row rejects NaN, so no value has it.
  constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  std::fill(table.begin(), table.end(), kEmpty);
  const std::size_t mask = table.size() - 1;
  const int shift = 32 - std::countr_zero(table.size());
  out.clear();
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const float v = data.feature(r, col);
    const auto key = std::bit_cast<std::uint32_t>(v);
    std::size_t slot = (key * 0x9E3779B1u) >> shift;
    while (table[slot] != kEmpty && table[slot] != key) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] == kEmpty) {
      table[slot] = key;
      out.push_back(v);
    }
  }
}

/// Quantile bin boundaries for one feature column. Distinct values fewer
/// than max_bins get one bin each (exact splits); otherwise boundaries sit
/// at evenly spaced quantiles of the value distribution.
FeatureBins build_bins(std::vector<float>& values, std::uint32_t max_bins) {
  FeatureBins fb;
  std::sort(values.begin(), values.end());
  // Merges -0.0 with +0.0, the one pair of distinct bit patterns that
  // compare equal.
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (values.size() <= 1) return fb;  // constant feature: single bin
  if (values.size() <= max_bins) {
    // One bin per distinct value; boundary = midpoint between neighbours.
    // Where that is not finite (a neighbour is infinite, or the difference
    // overflows) it is the largest float below the upper neighbour, which
    // still separates the two (lo <= bound < hi) and stays a finite
    // threshold.
    fb.upper_bounds.reserve(values.size() - 1);
    for (std::size_t i = 0; i + 1 < values.size(); ++i) {
      const float lo = values[i];
      const float hi = values[i + 1];
      const float mid = lo + (hi - lo) * 0.5f;
      fb.upper_bounds.push_back(std::isfinite(mid) ? mid
                                                   : std::nextafter(hi, lo));
    }
    return fb;
  }
  fb.upper_bounds.reserve(max_bins - 1);
  for (std::uint32_t b = 1; b < max_bins; ++b) {
    const auto idx = static_cast<std::size_t>(
        static_cast<double>(b) * static_cast<double>(values.size()) /
        static_cast<double>(max_bins));
    const auto clamped = std::min(idx, values.size() - 1);
    const float bound = values[clamped];
    if (fb.upper_bounds.empty() || bound > fb.upper_bounds.back()) {
      fb.upper_bounds.push_back(bound);
    }
  }
  return fb;
}

}  // namespace

BinnedDataset::BinnedDataset(const Dataset& data, std::uint32_t max_bins)
    : num_rows_(data.num_rows()) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("BinnedDataset: max_bins must be in [2,256]");
  }
  const std::size_t cols = data.num_features();
  bins_.reserve(cols);
  {  // scratch freed before the bins are allocated
    std::vector<std::uint32_t> table(
        std::bit_ceil(std::max<std::size_t>(2 * num_rows_, 16)));
    std::vector<float> values;
    for (std::size_t c = 0; c < cols; ++c) {
      distinct_values(data, c, table, values);
      bins_.push_back(build_bins(values, max_bins));
    }
  }
  binned_.resize(cols * num_rows_);
  std::uint8_t* out = binned_.data();
  for (std::size_t r = 0; r < num_rows_; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      *out++ =
          static_cast<std::uint8_t>(bins_[c].bin_for(data.feature(r, c)));
    }
  }
}

}  // namespace lfo::gbdt
