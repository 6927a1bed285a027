#include "quant/opq.h"

#include <cstring>
#include <vector>

#include "common/logging.h"
#include "linalg/svd.h"
#include "quant/kmeans.h"
#include "simd/simd.h"

namespace rpq::quant {

std::unique_ptr<PqQuantizer> TrainOpq(const Dataset& train,
                                      const OpqOptions& options) {
  RPQ_CHECK(!train.empty());
  size_t n = train.size();
  size_t d = train.dim();
  RPQ_CHECK_EQ(d % options.pq.m, 0u);

  linalg::Matrix r = linalg::Matrix::Identity(d);
  std::vector<float> rotated(n * d);
  std::memcpy(rotated.data(), train.data(), n * d * sizeof(float));

  Codebook book;
  std::vector<float> reconstructed(n * d);
  size_t sub_dim = d / options.pq.m;

  for (size_t outer = 0; outer < options.outer_iters; ++outer) {
    // Codebook step on the current rotation.
    PqOptions pq = options.pq;
    pq.seed = options.pq.seed + outer;  // fresh k-means restarts help escape
    book = TrainCodebooks(rotated.data(), n, d, pq);

    // Reconstruct each rotated vector from its nearest codewords.
    for (size_t i = 0; i < n; ++i) {
      const float* row = rotated.data() + i * d;
      float* rec = reconstructed.data() + i * d;
      for (size_t j = 0; j < options.pq.m; ++j) {
        uint32_t c = NearestCentroid(row + j * sub_dim, book.Chunk(j),
                                     options.pq.effective_k(), sub_dim);
        std::memcpy(rec + j * sub_dim, book.Word(j, c), sub_dim * sizeof(float));
      }
    }

    // R-step: min_R ||R X - Y||  =>  R = Procrustes(X, Y), with X the original
    // data and Y the current reconstructions (both n x d, rows as samples).
    // Build the d x d cross matrix Y^T... ProcrustesRotation wants matrices
    // whose COLUMNS are samples; we pass X^T-shaped views via d x n matrices.
    linalg::Matrix xt(d, n), yt(d, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        xt.At(j, i) = train[i][j];
        yt.At(j, i) = reconstructed[i * d + j];
      }
    }
    r = linalg::ProcrustesRotation(xt, yt);

    // Re-rotate the data for the next codebook step (simd::MatTVec over R^T
    // is bit-identical to linalg::MatVec over R).
    const linalg::Matrix rt = r.Transposed();
    for (size_t i = 0; i < n; ++i) {
      simd::MatTVec(rt.data(), train[i], d, rotated.data() + i * d);
    }
  }

  // Final codebooks on the final rotation.
  book = TrainCodebooks(rotated.data(), n, d, options.pq);
  return std::make_unique<PqQuantizer>(std::move(book), std::move(r));
}

}  // namespace rpq::quant
