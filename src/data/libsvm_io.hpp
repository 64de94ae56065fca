// LIBSVM-format reader/writer.
//
// The paper's four datasets (covtype, w8a, delicious, real-sim) ship in
// LIBSVM sparse text format. The paper densifies them ("we process all the
// datasets in dense format"); this reader writes CSR rows, and the Dataset
// keeps them CSR or densifies them by its storage rule (dataset.hpp). When
// the real files are present they can be loaded directly; the synthetic
// generators stand in when they are not.
#pragma once

#include <optional>
#include <string>

#include "data/dataset.hpp"

namespace hetsgd::data {

struct LibsvmReadOptions {
  // Dimension override; 0 means infer from the max feature index seen.
  tensor::Index dim = 0;
  // Labels in the file are integers within int32, e.g. {-1, +1}, {1..K}
  // or {0..K-1}; they are remapped to contiguous [0, K) in sorted order,
  // which keeps {0..K-1} as it is.
  // Cap on examples read; 0 means all.
  tensor::Index max_examples = 0;
  std::string dataset_name;  // defaults to the file path
};

// Parses a LIBSVM file into a Dataset. A repeated feature index keeps its
// last value, and zero values are not stored. On malformed input (a label
// that is not an integer within int32, truncated pair, non-numeric index,
// index < 1, non-finite value, index beyond --dim) returns nullopt and sets
// *error to a "path: line N: ..." diagnostic.
std::optional<Dataset> try_read_libsvm(const std::string& path,
                                       const LibsvmReadOptions& options,
                                       std::string* error);

// Parses LIBSVM content from a string (unit tests). Same error contract as
// try_read_libsvm, with "line N: ..." diagnostics.
std::optional<Dataset> try_read_libsvm_string(const std::string& content,
                                              const LibsvmReadOptions& options,
                                              std::string* error);

// Aborting wrapper over try_read_libsvm for tools that have no recovery
// path: the parse diagnostic becomes the abort message.
Dataset read_libsvm(const std::string& path, const LibsvmReadOptions& options);

// Writes a dataset in LIBSVM format (omitting zeros). Round-trips with
// read_libsvm for finite data.
void write_libsvm(const Dataset& dataset, const std::string& path);

}  // namespace hetsgd::data
