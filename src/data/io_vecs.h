// Readers/writers for the TEXMEX .fvecs / .ivecs formats used by the public
// SIFT/GIST/Deep benchmark datasets, so real data can replace the synthetic
// generators without code changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace rpq::io {

/// Reads an .fvecs file: each record is int32 dim followed by dim floats.
/// max_records == 0 reads everything. A record holding NaN or Inf, or whose
/// dimension differs from the first record's, is an IOError that names the
/// record's index.
Result<Dataset> ReadFvecs(const std::string& path, size_t max_records = 0);

/// Writes a dataset as .fvecs.
Status WriteFvecs(const std::string& path, const Dataset& data);

/// Reads an .ivecs file (int32 dim + dim int32s per record).
Result<std::vector<std::vector<int32_t>>> ReadIvecs(const std::string& path,
                                                    size_t max_records = 0);

/// Writes int vectors as .ivecs.
Status WriteIvecs(const std::string& path,
                  const std::vector<std::vector<int32_t>>& rows);

}  // namespace rpq::io
