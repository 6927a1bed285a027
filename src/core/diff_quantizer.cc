#include "core/diff_quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/distance.h"
#include "common/logging.h"
#include "linalg/matexp.h"
#include "quant/kmeans.h"
#include "simd/simd.h"

namespace rpq::core {

void GradBuffer::Reset() {
  for (auto& m : grad_rotation) {
    m *= 0.0f;
  }
  std::fill(grad_codebook.begin(), grad_codebook.end(), 0.0f);
}

DiffQuantizer::DiffQuantizer(size_t dim, const DiffQuantizerOptions& options)
    : dim_(dim), opt_(options) {
  RPQ_CHECK_GT(opt_.m, 0u);
  RPQ_CHECK_EQ(dim_ % opt_.m, 0u);
  RPQ_CHECK_LE(opt_.k, 256u);
  sub_dim_ = dim_ / opt_.m;

  block_size_ = opt_.rotation_block == 0 ? dim_ : opt_.rotation_block;
  block_size_ = std::min(block_size_, dim_);
  RPQ_CHECK_EQ(dim_ % block_size_, 0u);
  size_t nblocks = dim_ / block_size_;
  block_params_.assign(nblocks, linalg::Matrix(block_size_, block_size_));
  block_rotation_t_.assign(nblocks, linalg::Matrix::Identity(block_size_));

  codebook_ = quant::Codebook(opt_.m, opt_.k, sub_dim_);
  chunk_temp_.assign(opt_.m, 1.0f);
}

void DiffQuantizer::RefreshRotation() {
  for (size_t b = 0; b < block_params_.size(); ++b) {
    block_rotation_t_[b] =
        linalg::MatrixExp(linalg::SkewPart(block_params_[b])).Transposed();
  }
}

void DiffQuantizer::Rotate(const float* x, float* out) const {
  // Bit-identical to linalg::MatVec(R_b, ...) per block (simd::MatTVec).
  for (size_t b = 0; b < block_rotation_t_.size(); ++b) {
    simd::MatTVec(block_rotation_t_[b].data(), x + b * block_size_, block_size_,
                  out + b * block_size_);
  }
}

void DiffQuantizer::InitCodebooks(const Dataset& train) {
  RPQ_CHECK_EQ(train.dim(), dim_);
  std::vector<float> rotated(train.size() * dim_);
  for (size_t i = 0; i < train.size(); ++i) {
    Rotate(train[i], rotated.data() + i * dim_);
  }
  quant::PqOptions pq;
  pq.m = opt_.m;
  pq.k = opt_.k;
  pq.seed = opt_.seed;
  codebook_ = quant::TrainCodebooks(rotated.data(), train.size(), dim_, pq);
}

void DiffQuantizer::CalibrateTemperatures(const Dataset& sample) {
  RPQ_CHECK_EQ(sample.dim(), dim_);
  std::vector<double> acc(opt_.m, 0.0);
  std::vector<float> rot(dim_);
  for (size_t i = 0; i < sample.size(); ++i) {
    Rotate(sample[i], rot.data());
    for (size_t j = 0; j < opt_.m; ++j) {
      float best = std::numeric_limits<float>::max();
      for (size_t k = 0; k < opt_.k; ++k) {
        best = std::min(best, SquaredL2(rot.data() + j * sub_dim_,
                                        codebook_.Word(j, k), sub_dim_));
      }
      acc[j] += best;
    }
  }
  for (size_t j = 0; j < opt_.m; ++j) {
    double mean = sample.empty() ? 1.0 : acc[j] / sample.size();
    chunk_temp_[j] = static_cast<float>(std::max(mean, 1e-6));
  }
}

void DiffQuantizer::Forward(const float* x, Rng* rng, bool stochastic,
                            ForwardResult* f) const {
  f->rotated.resize(dim_);
  f->soft.assign(opt_.m * opt_.k, 0.0f);
  f->quantized.resize(dim_);
  f->hard_code.resize(opt_.m);
  Rotate(x, f->rotated.data());

  std::vector<float> logits(opt_.k);
  for (size_t j = 0; j < opt_.m; ++j) {
    const float* y = f->rotated.data() + j * sub_dim_;
    float inv_t = 1.0f / chunk_temp_[j];
    float best = std::numeric_limits<float>::max();
    size_t best_k = 0;
    for (size_t k = 0; k < opt_.k; ++k) {
      float d = SquaredL2(y, codebook_.Word(j, k), sub_dim_);
      if (d < best) {
        best = d;
        best_k = k;
      }
      // Eq. 6 with the corrected sign: nearer codeword -> larger probability.
      logits[k] = -d * inv_t;
      if (stochastic && rng != nullptr) logits[k] += rng->Gumbel();
    }
    f->hard_code[j] = static_cast<uint8_t>(best_k);

    // Gumbel-Softmax (Eq. 7) with temperature tau.
    float inv_tau = 1.0f / opt_.gumbel_tau;
    float mx = -std::numeric_limits<float>::max();
    for (size_t k = 0; k < opt_.k; ++k) mx = std::max(mx, logits[k] * inv_tau);
    float sum = 0;
    float* soft = f->soft.data() + j * opt_.k;
    for (size_t k = 0; k < opt_.k; ++k) {
      soft[k] = std::exp(logits[k] * inv_tau - mx);
      sum += soft[k];
    }
    for (size_t k = 0; k < opt_.k; ++k) soft[k] /= sum;

    // Quantized chunk: soft convex combination (or hard codeword under ST).
    float* q = f->quantized.data() + j * sub_dim_;
    if (opt_.straight_through) {
      // Forward uses the argmax of the (possibly noisy) relaxation so the
      // training signal reflects hard quantization.
      size_t arg = 0;
      float best_s = soft[0];
      for (size_t k = 1; k < opt_.k; ++k) {
        if (soft[k] > best_s) {
          best_s = soft[k];
          arg = k;
        }
      }
      std::memcpy(q, codebook_.Word(j, arg), sub_dim_ * sizeof(float));
    } else {
      std::fill(q, q + sub_dim_, 0.0f);
      for (size_t k = 0; k < opt_.k; ++k) {
        float s = soft[k];
        if (s < 1e-8f) continue;
        const float* w = codebook_.Word(j, k);
        for (size_t t = 0; t < sub_dim_; ++t) q[t] += s * w[t];
      }
    }
  }
}

void DiffQuantizer::Backward(const float* x, const ForwardResult& f,
                             const float* grad_quantized, GradBuffer* g) const {
  std::vector<float> grad_rotated(dim_, 0.0f);
  std::vector<float> grad_soft(opt_.k);
  std::vector<float> grad_logits(opt_.k);

  for (size_t j = 0; j < opt_.m; ++j) {
    const float* y = f.rotated.data() + j * sub_dim_;
    const float* soft = f.soft.data() + j * opt_.k;
    const float* gq = grad_quantized + j * sub_dim_;
    float* grad_y = grad_rotated.data() + j * sub_dim_;
    float* gcb = g->grad_codebook.data() + (j * opt_.k) * sub_dim_;

    // Path 1: q = sum_k s_k c_k  (the backward path is always the soft
    // relaxation, also under straight-through).
    for (size_t k = 0; k < opt_.k; ++k) {
      const float* w = codebook_.Word(j, k);
      float s = soft[k];
      grad_soft[k] = Dot(w, gq, sub_dim_);
      if (s >= 1e-8f) {
        float* gw = gcb + k * sub_dim_;
        for (size_t t = 0; t < sub_dim_; ++t) gw[t] += s * gq[t];
      }
    }

    // Softmax jacobian: grad_z_k = s_k * (grad_s_k - sum_l s_l grad_s_l),
    // where z = logits / tau.
    float dot_sg = 0;
    for (size_t k = 0; k < opt_.k; ++k) dot_sg += soft[k] * grad_soft[k];
    float inv_tau = 1.0f / opt_.gumbel_tau;
    float inv_t = 1.0f / chunk_temp_[j];
    for (size_t k = 0; k < opt_.k; ++k) {
      grad_logits[k] = soft[k] * (grad_soft[k] - dot_sg) * inv_tau;
    }

    // logits_k = -dist_k / T;  dist_k = ||y - c_k||^2.
    for (size_t k = 0; k < opt_.k; ++k) {
      float gd = -grad_logits[k] * inv_t;  // dL/d(dist_k)
      if (gd == 0.0f) continue;
      const float* w = codebook_.Word(j, k);
      float* gw = gcb + k * sub_dim_;
      for (size_t t = 0; t < sub_dim_; ++t) {
        float diff = y[t] - w[t];
        grad_y[t] += gd * 2.0f * diff;
        gw[t] -= gd * 2.0f * diff;
      }
    }
  }

  AccumulateRotationGrad(x, grad_rotated.data(), g);
}

void DiffQuantizer::AccumulateRotationGrad(const float* x,
                                           const float* grad_rotated,
                                           GradBuffer* g) const {
  // y_b = R_b x_b  =>  dL/dR_b += grad_y_b x_b^T.
  for (size_t b = 0; b < block_params_.size(); ++b) {
    linalg::Matrix& gr = g->grad_rotation[b];
    const float* gx = grad_rotated + b * block_size_;
    const float* xb = x + b * block_size_;
    for (size_t i = 0; i < block_size_; ++i) {
      float gi = gx[i];
      if (gi == 0.0f) continue;
      float* row = gr.Row(i);
      for (size_t j = 0; j < block_size_; ++j) row[j] += gi * xb[j];
    }
  }
}

size_t DiffQuantizer::NumParams() const {
  return block_params_.size() * block_size_ * block_size_ +
         codebook_.num_floats();
}

void DiffQuantizer::ExportParams(float* out) const {
  size_t off = 0;
  for (const auto& p : block_params_) {
    std::memcpy(out + off, p.data(), block_size_ * block_size_ * sizeof(float));
    off += block_size_ * block_size_;
  }
  std::memcpy(out + off, codebook_.data(), codebook_.num_floats() * sizeof(float));
}

void DiffQuantizer::ImportParams(const float* in) {
  size_t off = 0;
  for (auto& p : block_params_) {
    std::memcpy(p.data(), in + off, block_size_ * block_size_ * sizeof(float));
    off += block_size_ * block_size_;
  }
  std::memcpy(codebook_.data(), in + off, codebook_.num_floats() * sizeof(float));
  RefreshRotation();
}

void DiffQuantizer::FlattenGrads(const GradBuffer& g, float* out) const {
  size_t off = 0;
  for (size_t b = 0; b < block_params_.size(); ++b) {
    // Chain rule through R = exp(A), A = P - P^T:
    //   grad_A = L_exp(A^T)[grad_R]   (exact adjoint of the matrix exp)
    //   grad_P = grad_A - grad_A^T.
    linalg::Matrix a = linalg::SkewPart(block_params_[b]);
    linalg::Matrix grad_a = linalg::MatrixExpGrad(a, g.grad_rotation[b]);
    for (size_t i = 0; i < block_size_; ++i) {
      for (size_t j = 0; j < block_size_; ++j) {
        out[off + i * block_size_ + j] = grad_a.At(i, j) - grad_a.At(j, i);
      }
    }
    off += block_size_ * block_size_;
  }
  std::memcpy(out + off, g.grad_codebook.data(),
              g.grad_codebook.size() * sizeof(float));
}

GradBuffer DiffQuantizer::MakeGradBuffer() const {
  GradBuffer g;
  g.grad_rotation.assign(block_params_.size(),
                         linalg::Matrix(block_size_, block_size_));
  g.grad_codebook.assign(codebook_.num_floats(), 0.0f);
  return g;
}

std::unique_ptr<quant::PqQuantizer> DiffQuantizer::Deploy() const {
  // Assemble the full D x D (block-diagonal) rotation for deployment.
  linalg::Matrix r(dim_, dim_);
  for (size_t b = 0; b < block_rotation_t_.size(); ++b) {
    for (size_t i = 0; i < block_size_; ++i) {
      for (size_t j = 0; j < block_size_; ++j) {
        r.At(b * block_size_ + i, b * block_size_ + j) =
            block_rotation_t_[b].At(j, i);
      }
    }
  }
  return std::make_unique<quant::PqQuantizer>(codebook_, std::move(r));
}

}  // namespace rpq::core
