#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/distance.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/matexp.h"
#include "linalg/matrix.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/kmeans.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/serialize.h"
#include "quant/split.h"
#include "simd/simd.h"

namespace rpq::quant {
namespace {

Dataset TestData(size_t n = 600, uint64_t seed = 5) {
  synthetic::GmmOptions opt;
  opt.dim = 32;
  opt.num_clusters = 8;
  opt.intrinsic_dim = 8;
  opt.anisotropy = 2.0f;
  return synthetic::MakeGmm(n, opt, seed);
}

TEST(KMeansTest, InertiaNonIncreasingAcrossIterations) {
  Dataset d = TestData();
  KMeansOptions o1;
  o1.k = 16;
  o1.max_iters = 1;
  o1.epsilon = 0.0f;
  KMeansOptions o5 = o1;
  o5.max_iters = 5;
  KMeansOptions o15 = o1;
  o15.max_iters = 15;
  double i1 = RunKMeans(d.data(), d.size(), d.dim(), o1).inertia;
  double i5 = RunKMeans(d.data(), d.size(), d.dim(), o5).inertia;
  double i15 = RunKMeans(d.data(), d.size(), d.dim(), o15).inertia;
  EXPECT_LE(i5, i1 * (1 + 1e-9));
  EXPECT_LE(i15, i5 * (1 + 1e-9));
}

TEST(KMeansTest, AssignmentsPointToNearestCentroid) {
  Dataset d = TestData(300);
  KMeansOptions opt;
  opt.k = 8;
  auto res = RunKMeans(d.data(), d.size(), d.dim(), opt);
  for (size_t i = 0; i < d.size(); ++i) {
    uint32_t nearest = NearestCentroid(d[i], res.centroids.data(), 8, d.dim());
    float d_assigned = SquaredL2(d[i], res.centroids.data() + res.assignment[i] * d.dim(), d.dim());
    float d_nearest = SquaredL2(d[i], res.centroids.data() + nearest * d.dim(), d.dim());
    EXPECT_NEAR(d_assigned, d_nearest, 1e-3f * (1 + d_nearest));
  }
}

TEST(KMeansTest, HandlesFewerPointsThanClusters) {
  Dataset d = TestData(5);
  KMeansOptions opt;
  opt.k = 16;
  auto res = RunKMeans(d.data(), d.size(), d.dim(), opt);
  EXPECT_EQ(res.centroids.size(), 16u * d.dim());
}

TEST(PqTest, EncodeDecodeShrinksError) {
  Dataset d = TestData();
  PqOptions opt;
  opt.m = 4;
  opt.k = 32;
  auto pq = PqQuantizer::Train(d, opt);
  // Reconstruction must be far better than quantizing to the global mean.
  std::vector<float> mean(d.dim(), 0.0f);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.dim(); ++j) mean[j] += d[i][j] / d.size();
  }
  double mean_err = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    mean_err += SquaredL2(d[i], mean.data(), d.dim());
  }
  mean_err /= d.size();
  EXPECT_LT(pq->Distortion(d), 0.5 * mean_err);
}

TEST(PqTest, AdcTableMatchesDecodeDistance) {
  Dataset d = TestData(400);
  PqOptions opt;
  opt.m = 8;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::vector<uint8_t> code(pq->code_size());
  std::vector<float> rec(d.dim());
  for (size_t q = 0; q < 5; ++q) {
    AdcTable table(*pq, d[q]);
    for (size_t i = 100; i < 110; ++i) {
      pq->Encode(d[i], code.data());
      pq->Decode(code.data(), rec.data());
      float direct = SquaredL2(d[q], rec.data(), d.dim());
      EXPECT_NEAR(table.Distance(code.data()), direct, 1e-2f * (1 + direct));
    }
  }
}

TEST(PqTest, SymmetricDistanceSelfIsZero) {
  Dataset d = TestData(200);
  PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::vector<uint8_t> code(pq->code_size());
  pq->Encode(d[0], code.data());
  EXPECT_FLOAT_EQ(SymmetricDistance(*pq, code.data(), code.data()), 0.0f);
}

TEST(SplitPqTest, SplitTrainingBeatsFourBitDistortion) {
  Dataset d = TestData();
  PqOptions four;
  four.m = 8;
  four.nbits = 4;  // k defaults to 16
  auto pq4 = PqQuantizer::Train(d, four);
  PqOptions eight;
  eight.m = 8;
  eight.nbits = 8;  // k defaults to 256, split-trained
  auto split = TrainSplitPq(d, eight);
  ASSERT_NE(split->split_model(), nullptr);
  EXPECT_EQ(split->num_centroids(), 256u);
  // 256 additive words per chunk must reconstruct better than 16 free ones.
  EXPECT_LT(split->Distortion(d), pq4->Distortion(d));
}

TEST(SplitPqTest, ProductCodebookIsSumOfLevelWords) {
  Dataset d = TestData(400);
  PqOptions opt;
  opt.m = 4;
  opt.nbits = 8;
  auto split = TrainSplitPq(d, opt);
  const SplitPqModel* model = split->split_model();
  ASSERT_NE(model, nullptr);
  const Codebook& product = split->codebook();
  const size_t sub = model->sub_dim();
  for (size_t j = 0; j < model->num_chunks(); ++j) {
    for (size_t c : {size_t(0), size_t(17), size_t(128), size_t(255)}) {
      const float* word = product.Word(j, c);
      const float* a = model->a.Word(j, c >> 4);
      const float* b = model->b.Word(j, c & 15);
      for (size_t t = 0; t < sub; ++t) {
        EXPECT_NEAR(word[t], a[t] + b[t], 1e-6f) << "j=" << j << " c=" << c;
      }
    }
  }
}

TEST(SplitPqTest, CrossSumMatchesBruteForceDotProducts) {
  Dataset d = TestData(300);
  PqOptions opt;
  opt.m = 8;
  opt.nbits = 8;
  auto split = TrainSplitPq(d, opt);
  const SplitPqModel* model = split->split_model();
  ASSERT_NE(model, nullptr);
  const size_t sub = model->sub_dim();
  std::vector<uint8_t> code(split->code_size());
  for (size_t i = 0; i < 10; ++i) {
    split->Encode(d[i], code.data());
    float want = 0.f;
    for (size_t j = 0; j < model->num_chunks(); ++j) {
      const float* a = model->a.Word(j, code[j] >> 4);
      const float* b = model->b.Word(j, code[j] & 15);
      for (size_t t = 0; t < sub; ++t) want += 2.f * a[t] * b[t];
    }
    EXPECT_NEAR(model->CrossSum(code.data()), want, 1e-4f * (1 + std::abs(want)));
  }
}

// Property sweep: distortion decreases as K or M grows (richer code space).
class PqDistortionSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(PqDistortionSweep, MoreCapacityLessDistortion) {
  auto [m, k] = GetParam();
  Dataset d = TestData();
  PqOptions small;
  small.m = m;
  small.k = k;
  PqOptions bigger_k = small;
  bigger_k.k = k * 2;
  auto q_small = PqQuantizer::Train(d, small);
  auto q_bigk = PqQuantizer::Train(d, bigger_k);
  EXPECT_LT(q_bigk->Distortion(d), q_small->Distortion(d) * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Capacity, PqDistortionSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(8, 16, 32)));

TEST(OpqTest, RotationIsOrthonormal) {
  Dataset d = TestData(400);
  OpqOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 16;
  opt.outer_iters = 3;
  auto opq = TrainOpq(d, opt);
  ASSERT_TRUE(opq->has_rotation());
  const auto& r = opq->rotation();
  linalg::Matrix rtr = linalg::MatMulTransA(r, r);
  EXPECT_LT(linalg::MaxAbsDiff(rtr, linalg::Matrix::Identity(d.dim())), 5e-3f);
}

TEST(OpqTest, NoWorseThanPqOnAnisotropicData) {
  // The whole point of OPQ: rotation rebalances dimension energy.
  Dataset d = TestData(800, 9);
  PqOptions popt;
  popt.m = 4;
  popt.k = 16;
  auto pq = PqQuantizer::Train(d, popt);
  OpqOptions oopt;
  oopt.pq = popt;
  oopt.outer_iters = 6;
  auto opq = TrainOpq(d, oopt);
  EXPECT_LT(opq->Distortion(d), pq->Distortion(d) * 1.05);
}

TEST(OpqTest, DecodeInvertsRotation) {
  Dataset d = TestData(300);
  OpqOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 64;
  opt.outer_iters = 2;
  auto opq = TrainOpq(d, opt);
  // Decoding an encoded vector must approximate the ORIGINAL vector.
  std::vector<uint8_t> code(opq->code_size());
  std::vector<float> rec(d.dim());
  double err = 0, norm = 0;
  for (size_t i = 0; i < 50; ++i) {
    opq->Encode(d[i], code.data());
    opq->Decode(code.data(), rec.data());
    err += SquaredL2(d[i], rec.data(), d.dim());
    norm += SquaredNorm(d[i], d.dim());
  }
  EXPECT_LT(err, 0.5 * norm);
}

TEST(ModelSizeTest, RotationAddsToModelSize) {
  Dataset d = TestData(300);
  PqOptions popt;
  popt.m = 4;
  popt.k = 16;
  auto pq = PqQuantizer::Train(d, popt);
  OpqOptions oopt;
  oopt.pq = popt;
  oopt.outer_iters = 1;
  auto opq = TrainOpq(d, oopt);
  EXPECT_EQ(opq->ModelSizeBytes(),
            pq->ModelSizeBytes() + d.dim() * d.dim() * sizeof(float));
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// A model with a random orthonormal rotation R = exp(P - P^T) and random
// codewords (no training: these tests pin arithmetic, not quality).
std::unique_ptr<PqQuantizer> RandomRotatedModel(size_t dim, size_t m, size_t k,
                                                uint64_t seed) {
  Rng rng(seed);
  Codebook book(m, k, dim / m);
  for (size_t i = 0; i < book.num_floats(); ++i) {
    book.data()[i] = rng.Gaussian();
  }
  linalg::Matrix p(dim, dim);
  for (size_t i = 0; i < dim * dim; ++i) p.data()[i] = rng.Gaussian(0, 0.2f);
  return std::make_unique<PqQuantizer>(std::move(book),
                                       linalg::MatrixExp(linalg::SkewPart(p)));
}

// The rotated LUT chain is bit-exact for sub-dims <= 3: BuildLookupTable
// (simd::MatTVec, then simd::L2ToMany) equals the scalar L2ToMany over
// linalg::MatVec(R, q), whichever backend is dispatched.
TEST(RotatedLutTest, BuildLookupTableMatchesScalarReferenceBitExactly) {
  Rng rng(31);
  // (dim, m): sub-dims 2 (64 x 4-bit on 128-dim), 3 and 1.
  const std::pair<size_t, size_t> shapes[] = {{128, 64}, {24, 8}, {16, 16}};
  for (auto [dim, m] : shapes) {
    auto pq = RandomRotatedModel(dim, m, 16, dim + m);
    const linalg::Matrix r = pq->rotation();
    const size_t sub = dim / m;
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<float> q(dim);
      for (auto& x : q) x = rng.Gaussian(0, 3.f);
      std::vector<float> rq(dim), want(m * 16), got(m * 16);
      linalg::MatVec(r, q.data(), rq.data());
      for (size_t j = 0; j < m; ++j) {
        simd::ScalarOps().l2_to_many(rq.data() + j * sub,
                                     pq->codebook().Chunk(j), 16, sub,
                                     want.data() + j * 16);
      }
      pq->BuildLookupTable(q.data(), got.data());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(want[i]))
            << simd::ActiveKernelName() << " dim=" << dim << " entry " << i;
      }
    }
  }
}

// FastScanTable's u8 quantization as it was written before the SSE2 row
// path: serial min/max, then elementwise round-half-up.
struct RefFastScan {
  std::vector<uint8_t> lut8;
  float bias = 0.f, scale = 0.f;
};
RefFastScan ReferenceQuantize(const float* table, size_t m, size_t k) {
  RefFastScan out;
  const size_t m2 = m + (m & 1);
  out.lut8.assign(m2 * 16, 0);
  float max_span = 0.f;
  std::vector<float> mins(m);
  for (size_t j = 0; j < m; ++j) {
    const float* row = table + j * k;
    float mn = row[0], mx = row[0];
    for (size_t c = 1; c < k; ++c) {
      mn = std::min(mn, row[c]);
      mx = std::max(mx, row[c]);
    }
    mins[j] = mn;
    out.bias += mn;
    max_span = std::max(max_span, mx - mn);
  }
  out.scale = max_span > 0.f ? max_span / 255.f : 1.f;
  const float inv_scale = 1.f / out.scale;
  for (size_t j = 0; j < m; ++j) {
    const float* row = table + j * k;
    for (size_t c = 0; c < k; ++c) {
      float q = (row[c] - mins[j]) * inv_scale;
      out.lut8[j * 16 + c] = static_cast<uint8_t>(std::min(q, 255.f) + 0.5f);
    }
  }
  return out;
}

TEST(FastScanQuantizeTest, MatchesReferenceQuantizeBitExactly) {
  Rng rng(37);
  for (size_t k : {size_t(16), size_t(9), size_t(1)}) {
    for (size_t m : {size_t(1), size_t(7), size_t(64), size_t(256)}) {
      std::vector<float> table(m * k);
      for (auto& x : table) x = std::abs(rng.Gaussian(0, 40.f));
      // A constant first row and a zero entry in the second.
      for (size_t c = 0; c < k; ++c) table[c] = 3.f;
      if (m > 1) table[k] = 0.f;
      FastScanTable fs(table.data(), m, k);
      RefFastScan ref = ReferenceQuantize(table.data(), m, k);
      EXPECT_EQ(Bits(fs.bias()), Bits(ref.bias)) << "m=" << m << " k=" << k;
      EXPECT_EQ(Bits(fs.scale()), Bits(ref.scale)) << "m=" << m << " k=" << k;
      ASSERT_EQ(fs.padded_chunks() * 16, ref.lut8.size());
      EXPECT_EQ(std::memcmp(fs.lut8(), ref.lut8.data(), ref.lut8.size()), 0)
          << "m=" << m << " k=" << k;
    }
  }
}

// R is stored transposed; rotation() rebuilds it exactly, so an RPQQ file
// round trip (which writes rotation()) changes no bit of R or of the tables.
TEST(RotatedLutTest, RotationSurvivesSaveLoadUnchanged) {
  auto pq = RandomRotatedModel(32, 16, 16, 41);
  const std::string path = ::testing::TempDir() + "/rotated_lut.rpqq";
  ASSERT_TRUE(SaveQuantizer(*pq, path).ok());
  auto loaded = LoadQuantizer(path);
  ASSERT_TRUE(loaded.ok());
  const linalg::Matrix a = pq->rotation(), b = loaded.value()->rotation();
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_EQ(
      std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)), 0);
  Rng rng(43);
  std::vector<float> q(32);
  for (auto& x : q) x = rng.Gaussian();
  std::vector<float> t1(16 * 16), t2(16 * 16);
  pq->BuildLookupTable(q.data(), t1.data());
  loaded.value()->BuildLookupTable(q.data(), t2.data());
  EXPECT_EQ(std::memcmp(t1.data(), t2.data(), t1.size() * sizeof(float)), 0);
  std::remove(path.c_str());
}

// Decode applies R^T as linalg::MatVec over the stored transpose. That is
// bit-identical to the column-accumulating loop over R that Decode ran when
// R itself was stored.
TEST(RotatedLutTest, DecodeMatchesColumnAccumulationOverRBitExactly) {
  auto pq = RandomRotatedModel(48, 16, 16, 47);
  const linalg::Matrix r = pq->rotation();
  Rng rng(53);
  std::vector<float> x(48), rot(48), want(48), got(48);
  std::vector<uint8_t> code(pq->code_size());
  for (int trial = 0; trial < 5; ++trial) {
    for (auto& v : x) v = rng.Gaussian();
    pq->Encode(x.data(), code.data());
    for (size_t j = 0; j < 16; ++j) {
      std::memcpy(rot.data() + j * 3, pq->codebook().Word(j, code[j]),
                  3 * sizeof(float));
    }
    std::fill(want.begin(), want.end(), 0.f);
    for (size_t i = 0; i < 48; ++i) {
      for (size_t j = 0; j < 48; ++j) want[j] += r.At(i, j) * rot[i];
    }
    pq->Decode(code.data(), got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), 48 * sizeof(float)), 0);
  }
}

}  // namespace
}  // namespace rpq::quant
