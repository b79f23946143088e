#ifndef LFO_GBDT_QUANTIZED_KERNELS_HPP
#define LFO_GBDT_QUANTIZED_KERNELS_HPP

#include <cstdint>
#include <cstddef>

/// Internal kernel interface between gbdt::QuantizedForest and its
/// ISA-specific batch traversal implementations. The AVX2 kernels live in
/// quantized_kernels_avx2.cpp, a separate translation unit compiled with
/// -mavx2 only when the toolchain supports it (CMake compile test, see
/// src/gbdt/CMakeLists.txt) so the rest of the library never emits AVX2
/// instructions; runtime CPU dispatch in quantized_forest.cpp decides
/// per process whether they may be called.

namespace lfo::gbdt::detail {

/// Borrowed view of the perfect (complete-tree) layout QuantizedForest
/// builds next to the SoA block whenever the padded size stays small
/// (QuantizedForest::complete_layout()). Tree t's internal nodes live at
/// fc[fc_base[t] + p] in heap order (children of p are 2p+1 / 2p+2, the
/// root is p = 0), padded under shallow leaves with always-left dummy
/// splits (cut 0xFFFF); every walk therefore descends exactly depths[t]
/// levels with NO child-pointer fetch — the one memory dependence per
/// level is the featcut word itself. The 2^depth leaf-layer values sit at
/// leaf_values[leaf_base[t] + (p - (2^depth - 1))], with a shallow leaf's
/// value replicated across its whole padded subtree so dummy routing
/// cannot change the result. Each tree's fc region is padded to >= 31
/// words so the kernels may load nodes 0..30 (levels 0-4) as four full
/// 8-word vectors for in-register lookups.
struct QuantCompleteView {
  const std::uint32_t* fc;          ///< heap-order (feature << 16) | cut
  const double* leaf_values;        ///< per-tree 2^depth leaf layer
  const std::uint32_t* fc_base;     ///< per-tree offset into fc
  const std::uint32_t* leaf_base;   ///< per-tree offset into leaf_values
  const std::int32_t* depths;       ///< per-tree depth (levels walked)
  std::size_t num_trees;
};

#if defined(LFO_HAVE_AVX2)
/// Perfect-layout batch traversal: processes the leading multiple of 8
/// rows of `rows` (16-row blocks first — two lane groups and two trees
/// interleaved keep four independent gather chains in flight — then one
/// 8-row block) and returns how many rows it handled; the caller runs the
/// scalar kernel on the remainder. `out` must be pre-filled with the
/// running per-row score (normally the base score); `bins` points at the
/// first row's bin vector and rows are `stride_bytes` apart. The quantized
/// buffer must carry QuantizedForest::kGatherPad trailing bytes: the 32-bit
/// gathers read up to 3 bytes past the last bin. Addition order per row is
/// tree order, bitwise identical to the scalar kernel.
std::size_t predict_complete_avx2_u8(const QuantCompleteView& forest,
                                     const std::uint8_t* bins,
                                     std::size_t stride_bytes, double* out,
                                     std::size_t rows);
std::size_t predict_complete_avx2_u16(const QuantCompleteView& forest,
                                      const std::uint8_t* bins,
                                      std::size_t stride_bytes, double* out,
                                      std::size_t rows);

/// Vectorized quantizer over the flattened 8-padded cut tables
/// (QuantizedForest::qbounds_ layout: feature f's boundaries at
/// qbounds + qoffset[f], qcount[f] floats padded to a multiple of 8 with
/// +inf, of which the first qsize[f] are real). Each bin is the count of
/// `boundary < value` compares — exactly #{boundaries < v}, i.e. bitwise
/// the same bin std::lower_bound produces (+inf padding never compares
/// less; NaN compares false like lower_bound's operator<). Full 8-row
/// groups run transposed — an 8x8 block transpose turns each feature into
/// one 8-row vector, so a boundary costs a single broadcast compare with
/// no per-feature horizontal reduction — and the counts are transposed
/// back, so the output stays plain row-major (rows * dim bins of the
/// given width); leftover rows fall back to the per-row popcount scan.
void quantize_rows_avx2_u8(const float* matrix, std::size_t rows,
                           std::size_t dim, const float* qbounds,
                           const std::uint32_t* qoffset,
                           const std::uint32_t* qcount,
                           const std::uint32_t* qsize, std::uint8_t* out);
void quantize_rows_avx2_u16(const float* matrix, std::size_t rows,
                            std::size_t dim, const float* qbounds,
                            const std::uint32_t* qoffset,
                            const std::uint32_t* qcount,
                            const std::uint32_t* qsize, std::uint16_t* out);
#endif  // LFO_HAVE_AVX2

}  // namespace lfo::gbdt::detail

#endif  // LFO_GBDT_QUANTIZED_KERNELS_HPP
