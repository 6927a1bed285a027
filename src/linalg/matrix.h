// Dense row-major float matrix used by the rotation learner, OPQ and the
// synthetic data generators. Deliberately minimal: only the operations the
// library needs, all with explicit dimensions.
#pragma once

#include <cstddef>
#include <vector>

namespace rpq::linalg {

/// Row-major dense matrix of floats.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }
  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  Matrix Transposed() const;
  /// Frobenius norm.
  float FrobeniusNorm() const;
  /// Max |a_ij|.
  float MaxAbs() const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(float s);

 private:
  size_t rows_, cols_;
  std::vector<float> data_;
};

/// C = A * B (dims must agree).
Matrix MatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
/// y = A * x for a length-cols vector x (y has length rows).
void MatVec(const Matrix& a, const float* x, float* y);
/// ||A - B||_inf elementwise.
float MaxAbsDiff(const Matrix& a, const Matrix& b);
/// Skew-symmetric part (P - P^T).
Matrix SkewPart(const Matrix& p);

}  // namespace rpq::linalg
