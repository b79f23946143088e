#ifndef LFO_GBDT_QUANTIZED_FOREST_HPP
#define LFO_GBDT_QUANTIZED_FOREST_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "gbdt/dataset.hpp"
#include "gbdt/gbdt.hpp"

namespace lfo::gbdt {

/// Which batch kernel the quantized engine may use. kAuto picks the
/// AVX2 kernel when the CPU supports it and the forest has the perfect
/// layout (scalar otherwise); kForceScalar pins the portable scalar
/// kernel — the same override the LFO_SIMD=scalar|off environment
/// variable applies process-wide. Every kernel reaches the same leaves and accumulates in
/// the same order, so the mode can never change scores or decisions
/// (enforced by tests/test_quantized_forest.cpp and the
/// LFO_SIMD=scalar CI leg of tools/run_static_checks.sh).
enum class SimdMode { kAuto, kForceScalar };
void set_simd_mode(SimdMode mode);
SimdMode simd_mode();
/// Name of the batch kernel the current mode/CPU/env would run:
/// "avx2" or "scalar" (for bench/diagnostic output).
const char* active_simd_kernel();

/// A trained Model recompiled for histogram-bin-quantized inference —
/// the kFlatQuantized serving engine (LightGBM-style, see ROADMAP item 2).
///
/// Compile time (i.e. model-swap time in the windowed pipeline): the
/// distinct split thresholds of each feature — which are exactly the
/// histogram bin boundaries the GBDT trainer emitted as split values —
/// are collected into a sorted per-feature bin-boundary table
/// (gbdt::FeatureBins), and every node's float threshold is replaced by
/// the integer index of that boundary. Serve time: the float feature row
/// is quantized ONCE into a uint8/uint16 bin-index row (uint8 when every
/// feature has < 256 boundaries), after which traversal is pure integer
/// compares over an 8-byte-per-node SoA block — SIMD-gather friendly.
///
/// Correctness contract: with bin(v) = #{boundaries < v} and cut(t) =
/// index of threshold t, `bin(v) <= cut(t)` holds iff `v <= t` for every
/// non-NaN v (including ±inf and exact-threshold hits), so every sample
/// reaches the SAME leaf as the float engines, and leaf values are
/// accumulated per row in tree order — scores are allowed to differ in
/// ulps by contract (DESIGN.md), but this implementation reproduces
/// kTreeWalk bitwise, and decisions can never differ. The scalar and
/// AVX2 kernels are mutually bitwise identical.
///
/// predict()/batch kernels perform no heap allocation once the
/// caller-owned scratch is warm (grow-only sizing on first use).
class QuantizedForest {
 public:
  /// Trailing bytes the quantized buffer carries beyond the last bin:
  /// SIMD kernels fetch bins with 4-byte gathers, reading up to 3 bytes
  /// past the final uint8/uint16 element. quantize() sizes this in.
  static constexpr std::size_t kGatherPad = 4;

  QuantizedForest() = default;

  /// Compile a trained model for rows of `num_features` columns (the
  /// feature-schema dimension; every split feature must be < it). The
  /// model can be discarded afterwards.
  static QuantizedForest compile(const Model& model,
                                 std::size_t num_features);

  std::size_t num_trees() const { return roots_.size(); }
  std::size_t num_nodes() const { return left_.size(); }
  std::size_t num_features() const { return num_features_; }
  double base_score() const { return base_score_; }
  /// Sum of per-tree depths: node visits per fully-traversed row (for
  /// the bench_micro bytes-touched/row roofline accounting).
  std::size_t total_levels() const;
  /// SoA bytes per node touched per visit (left + featcut).
  static constexpr std::size_t node_bytes() {
    return sizeof(std::int32_t) + sizeof(std::uint32_t);
  }

  /// Bytes per quantized bin: 1 when every feature has <= 255 bin
  /// boundaries (uint8 row), else 2 (uint16 row).
  std::size_t row_bytes() const { return row_bytes_; }
  /// Whether the perfect (heap-order, dummy-padded) tree layout was
  /// built — the layout the hot AVX2 kernel traverses without child
  /// pointers. Skipped only for pathologically deep forests, which take
  /// the scalar kernel.
  bool complete_layout() const { return complete_ok_; }
  /// Bin boundaries of feature f (sorted unique split thresholds).
  /// boundaries(f).bin_for(v) is the quantizer for one value.
  const FeatureBins& boundaries(std::size_t f) const { return cuts_[f]; }

  /// Quantize `rows` row-major float rows into bin-index rows, stored
  /// contiguously in `scratch` (row_bytes() per bin plus kGatherPad
  /// trailing bytes). Grow-only: warm scratches are never reallocated.
  void quantize(std::span<const float> matrix, std::size_t rows,
                std::vector<std::uint8_t>& scratch) const;

  /// Raw additive score (log-odds) of one sample; bitwise identical to
  /// the float engines. `scratch` holds the quantized row.
  double predict_raw(std::span<const float> features,
                     std::vector<std::uint8_t>& scratch) const;
  double predict_proba(std::span<const float> features,
                       std::vector<std::uint8_t>& scratch) const;

  /// Batched prediction over a row-major matrix of `out.size()` rows:
  /// one quantization pass, then the dispatched (AVX2/scalar)
  /// traversal. Bitwise identical to predict_raw row by row
  /// under every SimdMode.
  void predict_raw_batch(std::span<const float> matrix,
                         std::size_t num_features, std::span<double> out,
                         std::vector<std::uint8_t>& scratch) const;
  void predict_proba_batch(std::span<const float> matrix,
                           std::size_t num_features, std::span<double> out,
                           std::vector<std::uint8_t>& scratch) const;

  /// Batch traversal over an already-quantized bin matrix (as written by
  /// quantize()); the serving path splits the phases so the per-request
  /// row is quantized exactly once into caller-owned FeatureScratch.
  void predict_raw_binned(const std::uint8_t* bins, std::span<double> out)
      const;

 private:
  template <typename Bin>
  void quantize_rows(const float* matrix, std::size_t rows,
                     std::uint8_t* out) const;
  template <typename Bin>
  double predict_row_binned(const Bin* bins) const;
  template <typename Bin>
  void predict_batch_scalar(const std::uint8_t* bins, std::size_t rows,
                            double* out) const;

  // SoA node block, level-interleaved across trees like FlatForest:
  // left child (right = left + 1; self on leaves) and the packed
  // (feature << 16) | cut word (cut 0xFFFF on leaves, above every bin).
  std::vector<std::int32_t> left_;
  std::vector<std::uint32_t> featcut_;
  std::vector<double> values_;        // leaf value per node (0 on splits)
  std::vector<std::int32_t> roots_;   // per-tree root slot
  std::vector<std::int32_t> depths_;  // per-tree deepest level
  std::vector<FeatureBins> cuts_;     // per-feature bin boundaries

  // Flattened cut tables for the branchless quantizer: feature f's
  // boundaries at qbounds_[qoffset_[f]], padded to a multiple of 8 with
  // +inf, which never compares `< v` — so a plain (or SIMD popcount)
  // less-than count over the padded run is exactly the lower_bound bin.
  // qcount_ holds the padded length (for whole-vector row-major scans),
  // qsize_ the real one (for the transposed batch quantizer, which
  // broadcasts one boundary at a time and skips the padding).
  std::vector<float> qbounds_;
  std::vector<std::uint32_t> qoffset_;
  std::vector<std::uint32_t> qcount_;
  std::vector<std::uint32_t> qsize_;

  // Perfect (complete) tree layout for the gather kernels: per tree a
  // heap-ordered featcut region (>= 31 words so levels 0-4 load as four
  // full vectors) padded under shallow leaves with always-left dummies,
  // plus the 2^depth leaf-layer values with shallow-leaf values
  // replicated across their padded subtree. See
  // detail::QuantCompleteView. Built unless the padded forest would
  // exceed the size cap (complete_ok_).
  std::vector<std::uint32_t> complete_fc_;
  std::vector<double> complete_leaf_values_;
  std::vector<std::uint32_t> complete_fc_base_;
  std::vector<std::uint32_t> complete_leaf_base_;
  bool complete_ok_ = false;

  std::size_t num_features_ = 0;
  std::size_t row_bytes_ = 1;
  double base_score_ = 0.0;
};

}  // namespace lfo::gbdt

#endif  // LFO_GBDT_QUANTIZED_FOREST_HPP
