// AVX2 kernels for gbdt::QuantizedForest: batch traversal over quantized
// bin rows plus the vectorized quantizer itself. This TU is compiled with
// -mavx2 (gated by a CMake compile test); nothing here may be called
// unless runtime dispatch confirmed AVX2 support (__builtin_cpu_supports
// in quantized_forest.cpp), so the rest of the library stays runnable on
// pre-AVX2 x86.
//
// The traversal kernel, predict_complete_avx2_*, takes the branch-free
// step `right = (bin > cut)` over the perfect (heap-order) layout, which
// makes the child index pure arithmetic (2*cur + 1 + right), so a level
// costs at most TWO gathers, and the featcut words of levels 0-3 (nodes
// 0..14, preloaded as two 8-word vectors per tree) are fetched with
// in-register vpermd lookups instead of gathers. Blocks of 16 rows run two
// lane groups x two trees interleaved — four independent dependence
// chains — so gather latency is overlapped rather than serialized. Dummy
// always-left splits (cut 0xFFFF, which no bin index exceeds) pad shallow
// leaves to full depth and leaf values are replicated across the padded
// subtree, so the fixed-trip walk reaches a leaf slot holding exactly the
// value the float engines produce. Leaf values are gathered as doubles and
// accumulated per row in tree order — bitwise identical to the scalar
// kernel. Forests too deep for the perfect layout take the scalar kernel.
//
// The quantizer counts `boundary < value` over the flattened 8-padded
// cut tables with cmp/movemask/popcount — the same #{boundaries < v} a
// std::lower_bound computes, done branch-free in sizeof(table)/8 vector
// compares per feature.

#include "gbdt/quantized_kernels.hpp"

#if defined(LFO_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

#include "util/thread_annotations.hpp"

namespace lfo::gbdt::detail {

namespace {

/// Shared constants of one perfect-layout block (all lane groups).
struct CompleteCtx {
  __m256i bin_mask, cut_mask, one, seven, all_i;
  __m256d all_d;
  const int* bin_words;
};

/// One level of the perfect-layout walk for an 8-row group: fetch the
/// featcut word of each lane's heap position (vpermd on the preloaded
/// node 0..14 tables for levels 0-3, two lazily-loaded tables for level
/// 4, a gather beyond), compare the rows' bins against the cut, and step
/// to child 2*cur + 1 + (bin > cut). The word's high half is the
/// feature pre-scaled by row_bytes (see fill_complete), so the bin byte
/// offset is row_base + (vfc >> 16) with no per-level shift. Lanes
/// sitting on a real split (cut < 0xFFFF, i.e. not yet inside a padded
/// dummy subtree) are OR-ed into `live` so the caller can fast-forward
/// the block once every lane has converged.
LFO_HOT_PATH inline __m256i complete_step(const CompleteCtx& ctx, int level,
                                          __m256i cur, const int* fc,
                                          __m256i tab_a, __m256i tab_b,
                                          __m256i row_base, __m256i& live) {
  __m256i vfc;
  if (level < 3) {  // heap positions 0..6 sit in tab_a lanes 0..6
    vfc = _mm256_permutevar8x32_epi32(tab_a, cur);
  } else if (level == 3) {  // positions 7..14 sit in tab_b lanes 0..7
    vfc = _mm256_permutevar8x32_epi32(tab_b,
                                      _mm256_sub_epi32(cur, ctx.seven));
  } else if (level == 4) {
    // Positions 15..30: two more 8-word tables, loaded lazily (the fc
    // region is L1-hot) instead of kept live like tab_a/tab_b — six
    // tables per tree pair would spill. Each half is a vpermd on
    // (cur - first position); lanes past 22 take the upper table.
    const __m256i tab_c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc + 15));
    const __m256i tab_d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc + 23));
    const __m256i lo = _mm256_permutevar8x32_epi32(
        tab_c, _mm256_sub_epi32(cur, _mm256_set1_epi32(15)));
    const __m256i hi = _mm256_permutevar8x32_epi32(
        tab_d, _mm256_sub_epi32(cur, _mm256_set1_epi32(23)));
    vfc = _mm256_blendv_epi8(
        lo, hi, _mm256_cmpgt_epi32(cur, _mm256_set1_epi32(22)));
  } else {
    // Level 5+ keeps the gather: extending the vpermd scheme to the
    // 32-word level costs four table loads plus a two-stage blend per
    // step, which measured slower than the single masked gather here.
    vfc = _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), fc, cur,
                                      ctx.all_i, 4);
  }
  const __m256i vcut = _mm256_and_si256(vfc, ctx.cut_mask);
  live = _mm256_or_si256(live, _mm256_cmpgt_epi32(ctx.cut_mask, vcut));
  const __m256i voff =
      _mm256_add_epi32(row_base, _mm256_srli_epi32(vfc, 16));
  const __m256i vbin = _mm256_and_si256(
      _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), ctx.bin_words,
                                  voff, ctx.all_i, 1),
      ctx.bin_mask);
  const __m256i vgt = _mm256_cmpgt_epi32(vbin, vcut);
  return _mm256_sub_epi32(
      _mm256_add_epi32(_mm256_add_epi32(cur, cur), ctx.one), vgt);
}

/// Fast-forward a converged cursor vector the remaining `levels` down the
/// left spine of its dummy subtree: `levels` always-left steps collapse
/// to cur * 2^levels + (2^levels - 1). No-op for levels <= 0 (the tree
/// already reached its leaf layer).
LFO_HOT_PATH inline __m256i complete_skip(__m256i cur, int levels) {
  if (levels <= 0) return cur;
  return _mm256_add_epi32(
      _mm256_sll_epi32(cur, _mm_cvtsi32_si128(levels)),
      _mm256_set1_epi32((1 << levels) - 1));
}

/// Accumulate tree t's leaf values (heap position minus the leaf layer's
/// first position indexes the 2^depth value row) onto one group's
/// accumulators.
LFO_HOT_PATH inline void complete_leaf_acc(const CompleteCtx& ctx,
                                           const double* leaves, int depth,
                                           __m256i cur, __m256d& acc_lo,
                                           __m256d& acc_hi) {
  const __m256i idx =
      _mm256_sub_epi32(cur, _mm256_set1_epi32((1 << depth) - 1));
  acc_lo = _mm256_add_pd(
      acc_lo,
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), leaves,
                               _mm256_castsi256_si128(idx), ctx.all_d, 8));
  acc_hi = _mm256_add_pd(
      acc_hi, _mm256_mask_i32gather_pd(_mm256_setzero_pd(), leaves,
                                       _mm256_extracti128_si256(idx, 1),
                                       ctx.all_d, 8));
}

/// kGroups lane groups (8 rows each) through the whole forest, two trees
/// at a time: 2 * kGroups independent per-level dependence chains keep
/// the gather ports busy instead of waiting out one chain's latency.
/// kShift = log2(sizeof(bin)), kMask extracts one bin from a 4-byte load.
template <int kShift, std::uint32_t kMask, int kGroups>
LFO_HOT_PATH inline void predict_complete_block(
    const QuantCompleteView& forest, const std::uint8_t* bins,
    std::size_t stride_bytes, double* out) {
  CompleteCtx ctx;
  ctx.bin_mask = _mm256_set1_epi32(static_cast<int>(kMask));
  ctx.cut_mask = _mm256_set1_epi32(0xFFFF);
  ctx.one = _mm256_set1_epi32(1);
  ctx.seven = _mm256_set1_epi32(7);
  ctx.all_i = _mm256_set1_epi32(-1);
  ctx.all_d = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  ctx.bin_words = reinterpret_cast<const int*>(bins);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vstride =
      _mm256_set1_epi32(static_cast<int>(stride_bytes));
  __m256i row_base[kGroups];
  __m256d acc_lo[kGroups], acc_hi[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    row_base[g] = _mm256_mullo_epi32(
        _mm256_add_epi32(lane, _mm256_set1_epi32(8 * g)), vstride);
    acc_lo[g] = _mm256_loadu_pd(out + 8 * g);
    acc_hi[g] = _mm256_loadu_pd(out + 8 * g + 4);
  }

  std::size_t t = 0;
  for (; t + 2 <= forest.num_trees; t += 2) {
    const int d0 = forest.depths[t];
    const int d1 = forest.depths[t + 1];
    const int* const fc0 =
        reinterpret_cast<const int*>(forest.fc + forest.fc_base[t]);
    const int* const fc1 =
        reinterpret_cast<const int*>(forest.fc + forest.fc_base[t + 1]);
    // Levels 0-3 of both trees, register-resident (regions are padded to
    // >= 31 words, so these and the level-4 loads inside complete_step
    // are always in bounds).
    const __m256i tab_a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc0));
    const __m256i tab_b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc0 + 7));
    const __m256i tab_a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc1));
    const __m256i tab_b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc1 + 7));
    __m256i cur0[kGroups], cur1[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      cur0[g] = _mm256_setzero_si256();
      cur1[g] = _mm256_setzero_si256();
    }
    const int dmax = d0 > d1 ? d0 : d1;
    for (int l = 0; l < dmax; ++l) {
      __m256i live = _mm256_setzero_si256();
      if (l < d0) {
        for (int g = 0; g < kGroups; ++g) {
          cur0[g] = complete_step(ctx, l, cur0[g], fc0, tab_a0,
                                          tab_b0, row_base[g], live);
        }
      }
      if (l < d1) {
        for (int g = 0; g < kGroups; ++g) {
          cur1[g] = complete_step(ctx, l, cur1[g], fc1, tab_a1,
                                          tab_b1, row_base[g], live);
        }
      }
      if (_mm256_testz_si256(live, live)) {
        // Every lane of both trees walked a dummy this level: the rest of
        // the walk is always-left, so collapse it arithmetically.
        for (int g = 0; g < kGroups; ++g) {
          cur0[g] = complete_skip(cur0[g], d0 - 1 - l);
          cur1[g] = complete_skip(cur1[g], d1 - 1 - l);
        }
        break;
      }
    }
    const double* const lv0 = forest.leaf_values + forest.leaf_base[t];
    const double* const lv1 = forest.leaf_values + forest.leaf_base[t + 1];
    for (int g = 0; g < kGroups; ++g) {
      complete_leaf_acc(ctx, lv0, d0, cur0[g], acc_lo[g], acc_hi[g]);
    }
    for (int g = 0; g < kGroups; ++g) {
      complete_leaf_acc(ctx, lv1, d1, cur1[g], acc_lo[g], acc_hi[g]);
    }
  }
  if (t < forest.num_trees) {  // odd forest size: last tree solo
    const int d = forest.depths[t];
    const int* const fc =
        reinterpret_cast<const int*>(forest.fc + forest.fc_base[t]);
    const __m256i tab_a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc));
    const __m256i tab_b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fc + 7));
    __m256i cur[kGroups];
    for (int g = 0; g < kGroups; ++g) cur[g] = _mm256_setzero_si256();
    for (int l = 0; l < d; ++l) {
      __m256i live = _mm256_setzero_si256();
      for (int g = 0; g < kGroups; ++g) {
        cur[g] = complete_step(ctx, l, cur[g], fc, tab_a, tab_b,
                                       row_base[g], live);
      }
      if (_mm256_testz_si256(live, live)) {
        for (int g = 0; g < kGroups; ++g) {
          cur[g] = complete_skip(cur[g], d - 1 - l);
        }
        break;
      }
    }
    const double* const lv = forest.leaf_values + forest.leaf_base[t];
    for (int g = 0; g < kGroups; ++g) {
      complete_leaf_acc(ctx, lv, d, cur[g], acc_lo[g], acc_hi[g]);
    }
  }
  for (int g = 0; g < kGroups; ++g) {
    _mm256_storeu_pd(out + 8 * g, acc_lo[g]);
    _mm256_storeu_pd(out + 8 * g + 4, acc_hi[g]);
  }
}

template <int kShift, std::uint32_t kMask>
LFO_HOT_PATH inline std::size_t predict_complete(
    const QuantCompleteView& forest, const std::uint8_t* bins,
    std::size_t stride_bytes, double* out, std::size_t rows) {
  std::size_t done = 0;
  for (; done + 16 <= rows; done += 16) {
    predict_complete_block<kShift, kMask, 2>(
        forest, bins + done * stride_bytes, stride_bytes, out + done);
  }
  for (; done + 8 <= rows; done += 8) {
    predict_complete_block<kShift, kMask, 1>(
        forest, bins + done * stride_bytes, stride_bytes, out + done);
  }
  return done;
}

/// Per-row quantizer (single predictions and batch tails): whole-vector
/// compares over the padded table, popcount of the less-than mask.
template <typename Bin>
LFO_HOT_PATH inline void quantize_rows_each(
    const float* matrix, std::size_t rows, std::size_t dim,
    const float* qbounds, const std::uint32_t* qoffset,
    const std::uint32_t* qcount, Bin* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* const row = matrix + r * dim;
    Bin* const dst = out + r * dim;
    for (std::size_t f = 0; f < dim; ++f) {
      const __m256 v = _mm256_set1_ps(row[f]);
      const float* const b = qbounds + qoffset[f];
      const std::uint32_t n = qcount[f];
      unsigned bin = 0;
      for (std::uint32_t k = 0; k < n; k += 8) {
        const __m256 lt =
            _mm256_cmp_ps(_mm256_loadu_ps(b + k), v, _CMP_LT_OQ);
        bin += static_cast<unsigned>(_mm_popcnt_u32(
            static_cast<unsigned>(_mm256_movemask_ps(lt))));
      }
      dst[f] = static_cast<Bin>(bin);
    }
  }
}

/// In-place 8x8 transpose of eight row vectors (classic unpack/shuffle/
/// permute2f128 network; pure data movement, so it is reused for the
/// int32 count vectors via bit casts).
LFO_HOT_PATH inline void transpose_8x8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Store one row's eight int32 bins (each <= 0xFFFE) as Bin-width
/// elements at dst[0..n).
template <typename Bin>
LFO_HOT_PATH inline void store_bins(__m256i counts, Bin* dst, int n);

template <>
LFO_HOT_PATH inline void store_bins<std::uint8_t>(__m256i counts,
                                                  std::uint8_t* dst,
                                                  int n) {
  const __m256i w = _mm256_packus_epi32(counts, counts);   // per-lane u16
  const __m256i b = _mm256_packus_epi16(w, w);             // per-lane u8
  const unsigned lo =
      static_cast<unsigned>(_mm_cvtsi128_si32(_mm256_castsi256_si128(b)));
  const unsigned hi = static_cast<unsigned>(
      _mm_cvtsi128_si32(_mm256_extracti128_si256(b, 1)));
  if (n == 8) {
    std::uint8_t tmp[8];
    std::memcpy(tmp, &lo, 4);
    std::memcpy(tmp + 4, &hi, 4);
    std::memcpy(dst, tmp, 8);
    return;
  }
  std::uint8_t tmp[8];
  std::memcpy(tmp, &lo, 4);
  std::memcpy(tmp + 4, &hi, 4);
  for (int j = 0; j < n; ++j) dst[j] = tmp[j];
}

template <>
LFO_HOT_PATH inline void store_bins<std::uint16_t>(__m256i counts,
                                                   std::uint16_t* dst,
                                                   int n) {
  const __m256i w = _mm256_packus_epi32(counts, counts);  // per-lane u16
  std::uint16_t tmp[8];
  _mm_storel_epi64(reinterpret_cast<__m128i*>(tmp),
                   _mm256_castsi256_si128(w));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(tmp + 4),
                   _mm256_extracti128_si256(w, 1));
  if (n == 8) {
    std::memcpy(dst, tmp, 16);
    return;
  }
  for (int j = 0; j < n; ++j) dst[j] = tmp[j];
}

/// Transposed batch quantizer: eight rows at a time, features in chunks
/// of eight. The float transpose turns each feature into one 8-row
/// vector, so every boundary costs exactly one broadcast-compare-subtract
/// — no horizontal reduction, no per-feature mask/popcount chain — and
/// the int32 counts are transposed back into row-major order for the
/// store. Boundary iteration uses the REAL table sizes (qsize), skipping
/// the +inf padding entirely.
template <typename Bin>
LFO_HOT_PATH inline void quantize_rows_impl(
    const float* matrix, std::size_t rows, std::size_t dim,
    const float* qbounds, const std::uint32_t* qoffset,
    const std::uint32_t* qcount, const std::uint32_t* qsize, Bin* out) {
  std::size_t r0 = 0;
  for (; r0 + 8 <= rows; r0 += 8) {
    const float* const base = matrix + r0 * dim;
    Bin* const dst = out + r0 * dim;
    for (std::size_t f0 = 0; f0 < dim; f0 += 8) {
      const int w = dim - f0 < 8 ? static_cast<int>(dim - f0) : 8;
      __m256 col[8];
      if (w == 8) {
        for (int i = 0; i < 8; ++i) {
          col[i] = _mm256_loadu_ps(base + i * dim + f0);
        }
      } else {
        // Tail chunk: masked loads keep the last row's reads in bounds.
        __m256i mask = _mm256_setzero_si256();
        alignas(32) std::int32_t lanes[8] = {0};
        for (int j = 0; j < w; ++j) lanes[j] = -1;
        mask = _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
        for (int i = 0; i < 8; ++i) {
          col[i] = _mm256_maskload_ps(base + i * dim + f0, mask);
        }
      }
      transpose_8x8(col);
      __m256i counts[8];
      for (int j = 0; j < w; ++j) {
        const float* const b = qbounds + qoffset[f0 + j];
        // Round the real size up to a multiple of 4: the +inf padding
        // (qcount is 8-padded) never compares less, so the extra
        // boundaries are inert, and the 4x unroll turns the short
        // variable-trip loop into 1-2 well-predicted iterations.
        const std::uint32_t n = (qsize[f0 + j] + 3u) & ~3u;
        const __m256 vcol = col[j];
        __m256i cnt = _mm256_setzero_si256();
        for (std::uint32_t k = 0; k < n; k += 4) {
          cnt = _mm256_sub_epi32(
              cnt, _mm256_castps_si256(_mm256_cmp_ps(
                       _mm256_broadcast_ss(b + k), vcol, _CMP_LT_OQ)));
          cnt = _mm256_sub_epi32(
              cnt, _mm256_castps_si256(_mm256_cmp_ps(
                       _mm256_broadcast_ss(b + k + 1), vcol, _CMP_LT_OQ)));
          cnt = _mm256_sub_epi32(
              cnt, _mm256_castps_si256(_mm256_cmp_ps(
                       _mm256_broadcast_ss(b + k + 2), vcol, _CMP_LT_OQ)));
          cnt = _mm256_sub_epi32(
              cnt, _mm256_castps_si256(_mm256_cmp_ps(
                       _mm256_broadcast_ss(b + k + 3), vcol, _CMP_LT_OQ)));
        }
        counts[j] = cnt;
      }
      for (int j = w; j < 8; ++j) counts[j] = _mm256_setzero_si256();
      if (sizeof(Bin) == 1 && w == 8) {
        // Full u8 chunk: transpose-and-narrow in one pack network
        // instead of a 32-bit back-transpose plus per-row packing —
        // far fewer port-5 shuffles. packus stages leave lane0 holding
        // rows 0-3 and lane1 rows 4-7 of four features apiece; the
        // in-lane byte shuffle regroups them per row, and a 32-bit
        // interleave glues the f0-3 and f4-7 halves of each row.
        const __m256i p01 = _mm256_packus_epi32(counts[0], counts[1]);
        const __m256i p23 = _mm256_packus_epi32(counts[2], counts[3]);
        const __m256i p45 = _mm256_packus_epi32(counts[4], counts[5]);
        const __m256i p67 = _mm256_packus_epi32(counts[6], counts[7]);
        const __m256i q0 = _mm256_packus_epi16(p01, p23);
        const __m256i q1 = _mm256_packus_epi16(p45, p67);
        const __m256i regroup = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        const __m256i s0 = _mm256_shuffle_epi8(q0, regroup);
        const __m256i s1 = _mm256_shuffle_epi8(q1, regroup);
        const __m256i rows01_45 = _mm256_unpacklo_epi32(s0, s1);
        const __m256i rows23_67 = _mm256_unpackhi_epi32(s0, s1);
        alignas(32) std::uint8_t packed[64];
        _mm256_store_si256(reinterpret_cast<__m256i*>(packed), rows01_45);
        _mm256_store_si256(reinterpret_cast<__m256i*>(packed + 32),
                           rows23_67);
        // packed layout: rows 0,1 | 4,5 (first vector), 2,3 | 6,7.
        static constexpr int kRowSlot[8] = {0, 1, 4, 5, 2, 3, 6, 7};
        for (int s = 0; s < 8; ++s) {
          std::memcpy(dst + kRowSlot[s] * dim + f0, packed + 8 * s, 8);
        }
      } else {
        transpose_8x8(reinterpret_cast<__m256*>(counts));
        for (int i = 0; i < 8; ++i) {
          store_bins<Bin>(counts[i], dst + i * dim + f0, w);
        }
      }
    }
  }
  if (r0 < rows) {
    quantize_rows_each(matrix + r0 * dim, rows - r0, dim, qbounds, qoffset,
                       qcount, out + r0 * dim);
  }
}

}  // namespace

LFO_HOT_PATH std::size_t predict_complete_avx2_u8(
    const QuantCompleteView& forest, const std::uint8_t* bins,
    std::size_t stride_bytes, double* out, std::size_t rows) {
  return predict_complete<0, 0xFFu>(forest, bins, stride_bytes, out, rows);
}

LFO_HOT_PATH std::size_t predict_complete_avx2_u16(
    const QuantCompleteView& forest, const std::uint8_t* bins,
    std::size_t stride_bytes, double* out, std::size_t rows) {
  return predict_complete<1, 0xFFFFu>(forest, bins, stride_bytes, out,
                                      rows);
}

LFO_HOT_PATH void quantize_rows_avx2_u8(
    const float* matrix, std::size_t rows, std::size_t dim,
    const float* qbounds, const std::uint32_t* qoffset,
    const std::uint32_t* qcount, const std::uint32_t* qsize,
    std::uint8_t* out) {
  quantize_rows_impl(matrix, rows, dim, qbounds, qoffset, qcount, qsize,
                     out);
}

LFO_HOT_PATH void quantize_rows_avx2_u16(
    const float* matrix, std::size_t rows, std::size_t dim,
    const float* qbounds, const std::uint32_t* qoffset,
    const std::uint32_t* qcount, const std::uint32_t* qsize,
    std::uint16_t* out) {
  quantize_rows_impl(matrix, rows, dim, qbounds, qoffset, qcount, qsize,
                     out);
}

}  // namespace lfo::gbdt::detail

#endif  // LFO_HAVE_AVX2
