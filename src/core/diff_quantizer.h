// The differentiable quantizer of RPQ (paper §4).
//
// Two learnable parts:
//  (1) Adaptive vector decomposition: an orthonormal rotation R = exp(A),
//      A = P - P^T skew-symmetric with P the free parameter, applied before
//      chunking. For large D the rotation may be block-diagonal (blocks of
//      `rotation_block` dims) to keep the matrix exponential tractable; a
//      single full block reproduces the paper exactly.
//  (2) Sub-codebooks quantizing each chunk. The discrete argmin is replaced
//      by codeword-assignment probabilities p(c|x) = softmax(-dist/T) (Eq. 6,
//      sign corrected — see DESIGN.md) relaxed with Gumbel-Softmax (Eq. 7),
//      so gradients reach both codewords and rotation.
//
// All gradients are computed by hand (no autograd dependency) and validated
// against finite differences in tests/core_diffq_test.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "quant/pq.h"

namespace rpq::core {

/// Structural configuration of the differentiable quantizer.
struct DiffQuantizerOptions {
  size_t m = 8;               ///< chunks
  size_t k = 256;             ///< codewords per chunk
  size_t rotation_block = 0;  ///< 0 = one full D x D rotation
  float gumbel_tau = 1.0f;    ///< Gumbel-Softmax temperature
  bool straight_through = true;  ///< hard forward / soft backward
  uint64_t seed = 41;
};

/// Gradient accumulator matching the quantizer's parameters.
struct GradBuffer {
  std::vector<linalg::Matrix> grad_rotation;  ///< dL/dR per block
  std::vector<float> grad_codebook;           ///< aligned with Codebook floats
  void Reset();
};

/// Per-vector forward activations (kept for the backward pass).
struct ForwardResult {
  std::vector<float> rotated;    ///< y = R x, D floats
  std::vector<float> soft;       ///< Gumbel-Softmax assignments, M*K
  std::vector<float> quantized;  ///< y_hat in rotated space, D floats
  std::vector<uint8_t> hard_code;///< argmin codeword ids, M bytes
};

/// Trainable rotation+codebook quantizer with manual back-prop.
class DiffQuantizer {
 public:
  DiffQuantizer(size_t dim, const DiffQuantizerOptions& options);

  size_t dim() const { return dim_; }
  size_t num_chunks() const { return opt_.m; }
  size_t num_centroids() const { return opt_.k; }
  size_t sub_dim() const { return sub_dim_; }
  size_t num_blocks() const { return block_params_.size(); }
  size_t block_size() const { return block_size_; }

  /// k-means initialization of the codebooks on (rotated) training chunks.
  void InitCodebooks(const Dataset& train);

  /// Sets the per-chunk assignment temperature from data statistics
  /// (mean nearest-codeword distance), so softmax sharpness is scale-free.
  void CalibrateTemperatures(const Dataset& sample);

  /// Forward pass. `rng` supplies Gumbel noise; pass stochastic=false for a
  /// deterministic (noise-free) relaxation, e.g. in tests or at deployment.
  void Forward(const float* x, Rng* rng, bool stochastic, ForwardResult* f) const;

  /// Accumulates dL/d(params) given dL/d(quantized) for the same vector.
  /// Adds the rotation-path gradient dL/dR += (dL/dy) x^T automatically.
  void Backward(const float* x, const ForwardResult& f, const float* grad_quantized,
                GradBuffer* g) const;

  /// Extra rotation gradient for vectors that are rotated but NOT quantized
  /// (e.g. the query inside the routing loss): dL/dR += grad_rotated x^T.
  void AccumulateRotationGrad(const float* x, const float* grad_rotated,
                              GradBuffer* g) const;

  /// Rotates x into the quantized space (D floats out).
  void Rotate(const float* x, float* out) const;

  // --- Parameter access for the optimizer (flat layout: all block P matrices
  // then all codebook floats). ---
  size_t NumParams() const;
  void ExportParams(float* out) const;
  void ImportParams(const float* in);  ///< also refreshes R = exp(P - P^T)
  /// Converts a GradBuffer into the flat layout (rotation grads pass through
  /// the exact matrix-exponential adjoint here — the expensive step).
  void FlattenGrads(const GradBuffer& g, float* out) const;
  GradBuffer MakeGradBuffer() const;

  /// Freezes training state into a deployable rotation+PQ quantizer.
  std::unique_ptr<quant::PqQuantizer> Deploy() const;

  const quant::Codebook& codebook() const { return codebook_; }
  const std::vector<float>& chunk_temps() const { return chunk_temp_; }

 private:
  void RefreshRotation();

  size_t dim_, sub_dim_, block_size_;
  DiffQuantizerOptions opt_;
  std::vector<linalg::Matrix> block_params_;    // P per block
  // R^T per block, R = exp(P - P^T): the layout simd::MatTVec reads.
  std::vector<linalg::Matrix> block_rotation_t_;
  quant::Codebook codebook_;
  std::vector<float> chunk_temp_;  // per-chunk assignment temperature T_j
};

}  // namespace rpq::core
