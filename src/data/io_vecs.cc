#include "data/io_vecs.h"

#include "common/file_io.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace rpq::io {

Result<Dataset> ReadFvecs(const std::string& path, size_t max_records) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  Dataset out;
  std::vector<float> buf;
  size_t count = 0;
  for (;;) {
    int32_t dim = 0;
    size_t got = std::fread(&dim, sizeof(dim), 1, f.get());
    if (got == 0) break;
    if (dim <= 0 || dim > (1 << 20)) {
      return Status::IOError(path + ": bad record dimension " + std::to_string(dim));
    }
    if (out.size() > 0 && static_cast<size_t>(dim) != out.dim()) {
      return Status::IOError(path + ": record " + std::to_string(out.size()) +
                             " has dimension " + std::to_string(dim) +
                             ", earlier records " + std::to_string(out.dim()));
    }
    buf.resize(static_cast<size_t>(dim));
    if (std::fread(buf.data(), sizeof(float), buf.size(), f.get()) != buf.size()) {
      return Status::IOError(path + ": truncated record");
    }
    // A NaN or Inf coordinate makes every distance to the row meaningless.
    for (const float v : buf) {
      if (!std::isfinite(v)) {
        return Status::IOError(path + ": record " + std::to_string(out.size()) +
                               " holds a non-finite value");
      }
    }
    out.Append(buf.data(), buf.size());
    if (max_records != 0 && ++count >= max_records) break;
  }
  return out;
}

Status WriteFvecs(const std::string& path, const Dataset& data) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  int32_t dim = static_cast<int32_t>(data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    if (std::fwrite(&dim, sizeof(dim), 1, f.get()) != 1 ||
        std::fwrite(data[i], sizeof(float), data.dim(), f.get()) != data.dim()) {
      return Status::IOError(path + ": short write");
    }
  }
  return Status::OK();
}

Result<std::vector<std::vector<int32_t>>> ReadIvecs(const std::string& path,
                                                    size_t max_records) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  std::vector<std::vector<int32_t>> out;
  for (;;) {
    int32_t dim = 0;
    size_t got = std::fread(&dim, sizeof(dim), 1, f.get());
    if (got == 0) break;
    if (dim <= 0 || dim > (1 << 20)) {
      return Status::IOError(path + ": bad record dimension " + std::to_string(dim));
    }
    std::vector<int32_t> row(static_cast<size_t>(dim));
    if (std::fread(row.data(), sizeof(int32_t), row.size(), f.get()) != row.size()) {
      return Status::IOError(path + ": truncated record");
    }
    out.push_back(std::move(row));
    if (max_records != 0 && out.size() >= max_records) break;
  }
  return out;
}

Status WriteIvecs(const std::string& path,
                  const std::vector<std::vector<int32_t>>& rows) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  for (const auto& row : rows) {
    int32_t dim = static_cast<int32_t>(row.size());
    if (std::fwrite(&dim, sizeof(dim), 1, f.get()) != 1 ||
        std::fwrite(row.data(), sizeof(int32_t), row.size(), f.get()) != row.size()) {
      return Status::IOError(path + ": short write");
    }
  }
  return Status::OK();
}

}  // namespace rpq::io
