#include "linalg/matrix.h"

#include <cmath>

#include "common/fp_exact.h"
#include "common/logging.h"

namespace rpq::linalg {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const float* src = Row(r);
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = src[c];
  }
  return t;
}

float Matrix::FrobeniusNorm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::MaxAbs() const {
  float m = 0;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  RPQ_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  RPQ_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  RPQ_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order: streams rows of B, cache-friendly for row-major data.
  for (size_t i = 0; i < a.rows(); ++i) {
    float* crow = c.Row(i);
    const float* arow = a.Row(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      float aik = arow[k];
      if (aik == 0.0f) continue;
      const float* brow = b.Row(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  RPQ_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const float* arow = a.Row(k);
    const float* brow = b.Row(k);
    for (size_t i = 0; i < a.cols(); ++i) {
      float aki = arow[i];
      if (aki == 0.0f) continue;
      float* crow = c.Row(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  RPQ_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = c.Row(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const float* brow = b.Row(j);
      float acc = 0;
      for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
  return c;
}

// Separately rounded multiply and add (no FMA contraction on targets that
// have it): simd::MatTVec reproduces exactly this per-row order.
RPQ_FP_EXACT_BEGIN
void MatVec(const Matrix& a, const float* x, float* y) {
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.Row(i);
    float acc = 0;
    for (size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}
RPQ_FP_EXACT_END

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  RPQ_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  float m = 0;
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

Matrix SkewPart(const Matrix& p) {
  RPQ_CHECK_EQ(p.rows(), p.cols());
  Matrix a(p.rows(), p.cols());
  for (size_t i = 0; i < p.rows(); ++i) {
    for (size_t j = 0; j < p.cols(); ++j) {
      a.At(i, j) = p.At(i, j) - p.At(j, i);
    }
  }
  return a;
}

}  // namespace rpq::linalg
