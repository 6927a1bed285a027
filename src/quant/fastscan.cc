#include "quant/fastscan.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.h"
#include "simd/simd.h"

namespace rpq::quant {
namespace {

// Packs one code's nibbles into the block holding slot `slot`.
inline void PackCode(const uint8_t* code, size_t m, uint8_t* block,
                     size_t slot) {
  for (size_t j = 0; j < m; ++j) {
    RPQ_CHECK(code[j] < 16 && "FastScan requires 4-bit codes (K <= 16)");
    uint8_t* cell = block + (j / 2) * 32 + slot;
    if ((j & 1) == 0) {
      *cell = static_cast<uint8_t>((*cell & 0xf0) | code[j]);
    } else {
      *cell = static_cast<uint8_t>((*cell & 0x0f) | (code[j] << 4));
    }
  }
}

// Min and max of one k-entry table row. Full 16-entry rows (the 4-bit
// regime) take four SSE2 vectors; min and max are exact in any order, so
// this equals the serial scan.
inline void RowMinMax(const float* row, size_t k, float* mn, float* mx) {
#if defined(__SSE2__)
  if (k == 16) {
    const __m128 r0 = _mm_loadu_ps(row), r1 = _mm_loadu_ps(row + 4);
    const __m128 r2 = _mm_loadu_ps(row + 8), r3 = _mm_loadu_ps(row + 12);
    __m128 lo = _mm_min_ps(_mm_min_ps(r0, r1), _mm_min_ps(r2, r3));
    __m128 hi = _mm_max_ps(_mm_max_ps(r0, r1), _mm_max_ps(r2, r3));
    lo = _mm_min_ps(lo, _mm_movehl_ps(lo, lo));
    hi = _mm_max_ps(hi, _mm_movehl_ps(hi, hi));
    *mn = _mm_cvtss_f32(_mm_min_ss(lo, _mm_shuffle_ps(lo, lo, 1)));
    *mx = _mm_cvtss_f32(_mm_max_ss(hi, _mm_shuffle_ps(hi, hi, 1)));
    return;
  }
#endif
  float lo = row[0], hi = row[0];
  for (size_t c = 1; c < k; ++c) {
    lo = std::min(lo, row[c]);
    hi = std::max(hi, row[c]);
  }
  *mn = lo;
  *mx = hi;
}

// out[c] = round-half-up((row[c] - mn) / scale), clamped to 255: a
// reciprocal multiply instead of a per-entry divide, and +0.5 then truncate
// instead of lround — this runs on every query, right before the search.
// Every step is elementwise, so the SSE2 path for full rows (truncating
// cvttps2dq, then packs that cannot saturate values in [0, 255]) produces
// the scalar loop's bytes.
inline void QuantizeRow(const float* row, size_t k, float mn, float inv_scale,
                        uint8_t* out) {
#if defined(__SSE2__)
  if (k == 16) {
    const __m128 vmn = _mm_set1_ps(mn), vinv = _mm_set1_ps(inv_scale);
    const __m128 cap = _mm_set1_ps(255.f), half = _mm_set1_ps(0.5f);
    __m128i q[4];
    for (int v = 0; v < 4; ++v) {
      const __m128 x =
          _mm_mul_ps(_mm_sub_ps(_mm_loadu_ps(row + 4 * v), vmn), vinv);
      q[v] = _mm_cvttps_epi32(_mm_add_ps(_mm_min_ps(x, cap), half));
    }
    const __m128i bytes = _mm_packus_epi16(_mm_packs_epi32(q[0], q[1]),
                                           _mm_packs_epi32(q[2], q[3]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), bytes);
    return;
  }
#endif
  for (size_t c = 0; c < k; ++c) {
    const float q = (row[c] - mn) * inv_scale;
    out[c] = static_cast<uint8_t>(std::min(q, 255.f) + 0.5f);
  }
}

}  // namespace

PackedCodes PackedCodes::Pack(const uint8_t* codes, size_t n,
                              size_t code_size) {
  RPQ_CHECK(code_size > 0 && code_size <= 256);
  PackedCodes out;
  out.num_codes = n;
  out.m = code_size;
  out.m2 = code_size + (code_size & 1);
  out.data.assign(out.num_blocks() * out.block_bytes(), 0);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* block = out.data.data() + (i / kBlockCodes) * out.block_bytes();
    PackCode(codes + i * code_size, code_size, block, i % kBlockCodes);
  }
  return out;
}

void PackedCodes::Append(const uint8_t* code) {
  RPQ_CHECK(m > 0 && "Append on a default-constructed PackedCodes");
  if (num_codes % kBlockCodes == 0) data.resize(data.size() + block_bytes(), 0);
  uint8_t* block = data.data() + (num_codes / kBlockCodes) * block_bytes();
  PackCode(code, m, block, num_codes % kBlockCodes);
  ++num_codes;
}

uint8_t PackedCodes::At(size_t i, size_t j) const {
  const uint8_t* block = data.data() + (i / kBlockCodes) * block_bytes();
  uint8_t cell = block[(j / 2) * 32 + (i % kBlockCodes)];
  return (j & 1) == 0 ? (cell & 0x0f) : (cell >> 4);
}

FastScanTable::FastScanTable(const VectorQuantizer& quantizer,
                             const float* query) {
  const size_t k = quantizer.num_centroids();
  m_ = quantizer.num_chunks();
  std::vector<float> table(m_ * k);
  quantizer.BuildLookupTable(query, table.data());
  Quantize(table.data(), k);
}

FastScanTable::FastScanTable(const DistanceLut& lut) {
  m_ = lut.num_chunks();
  Quantize(lut.data(), lut.num_centroids());
}

FastScanTable::FastScanTable(const float* table, size_t m, size_t k) {
  m_ = m;
  Quantize(table, k);
}

void FastScanTable::Quantize(const float* table, size_t k) {
  RPQ_CHECK(k > 0 && k <= 16 && "FastScan requires K <= 16 (4-bit codes)");
  RPQ_CHECK(m_ > 0 && m_ <= 256);
  m2_ = m_ + (m_ & 1);
  lut8_.assign(m2_ * 16, 0);

  // Shared scale: per-chunk minima fold into the bias, one delta quantizes
  // every chunk so the kernel's plain integer sum stays meaningful. bias_ is
  // a serial sum in row order.
  bias_ = 0.f;
  float max_span = 0.f;
  float mins[256];
  for (size_t j = 0; j < m_; ++j) {
    float mx;
    RowMinMax(table + j * k, k, &mins[j], &mx);
    bias_ += mins[j];
    max_span = std::max(max_span, mx - mins[j]);
  }
  scale_ = max_span > 0.f ? max_span / 255.f : 1.f;

  const float inv_scale = 1.f / scale_;
  for (size_t j = 0; j < m_; ++j) {
    QuantizeRow(table + j * k, k, mins[j], inv_scale, lut8_.data() + j * 16);
  }
}

void FastScanTable::ScanBlocks(const uint8_t* packed, size_t n_blocks,
                               uint16_t* sums) const {
  simd::AdcFastScan(lut8_.data(), m2_, packed, n_blocks, sums);
}

void FastScanTable::Scan(const PackedCodes& packed, float* out) const {
  RPQ_CHECK_EQ(packed.m2, m2_);
  std::vector<uint16_t> sums(packed.num_blocks() * PackedCodes::kBlockCodes);
  ScanBlocks(packed.data.data(), packed.num_blocks(), sums.data());
  for (size_t i = 0; i < packed.num_codes; ++i) out[i] = DecodeSum(sums[i]);
}

PackedNeighborBlocks PackedNeighborBlocks::Build(
    const graph::ProximityGraph& graph, const uint8_t* codes,
    size_t code_size) {
  RPQ_CHECK(code_size > 0 && code_size <= 256);
  PackedNeighborBlocks out;
  out.m = code_size;
  out.m2 = code_size + (code_size & 1);
  const size_t n = graph.num_vertices();
  const size_t bb = out.block_bytes();

  out.offsets.resize(n + 1);
  size_t total = 0;
  for (uint32_t v = 0; v < n; ++v) {
    out.offsets[v] = total;
    const size_t deg = graph.Neighbors(v).size();
    total += (deg + PackedCodes::kBlockCodes - 1) / PackedCodes::kBlockCodes * bb;
  }
  out.offsets[n] = total;

  out.data.assign(total, 0);
  for (uint32_t v = 0; v < n; ++v) {
    const auto& nbrs = graph.Neighbors(v);
    uint8_t* base = out.data.data() + out.offsets[v];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      uint8_t* block = base + (i / PackedCodes::kBlockCodes) * bb;
      PackCode(codes + static_cast<size_t>(nbrs[i]) * code_size, code_size,
               block, i % PackedCodes::kBlockCodes);
    }
  }
  return out;
}

}  // namespace rpq::quant
