#include "data/libsvm_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

namespace {

struct SparseExample {
  std::int32_t label = 0;
  std::vector<std::pair<Index, Scalar>> entries;
};

enum class ParseStatus { kOk, kSkip, kError };

std::string at_line(std::size_t line_no, const std::string& what) {
  return "line " + std::to_string(line_no) + ": " + what;
}

// Parses one "label idx:val idx:val ..." line. kSkip for blank or comment
// lines; kError (with a "line N: ..." message in *error) for malformed
// input. Never aborts — a bad dataset file is an input problem, not a bug.
ParseStatus parse_line(const std::string& line, std::size_t line_no,
                       SparseExample& out, std::string* error) {
  std::size_t pos = line.find_first_not_of(" \t\r");
  if (pos == std::string::npos || line[pos] == '#') return ParseStatus::kSkip;
  const char* s = line.c_str() + pos;
  char* end = nullptr;
  const double label = std::strtod(s, &end);
  if (end == s) {
    *error = at_line(line_no, "missing or non-numeric label");
    return ParseStatus::kError;
  }
  if (!std::isfinite(label)) {
    *error = at_line(line_no, "non-finite label");
    return ParseStatus::kError;
  }
  // Labels are class ids: "2.0" is class 2, but "0.7" names no class, and
  // converting a label beyond int32 would be undefined behaviour.
  const auto bad_label = [&](const char* why) {
    const std::string text(s, static_cast<std::size_t>(end - s));
    *error = at_line(line_no, "label " + text + why);
    return ParseStatus::kError;
  };
  if (label != std::trunc(label)) return bad_label(" is not an integer");
  if (label < std::numeric_limits<std::int32_t>::min() ||
      label > std::numeric_limits<std::int32_t>::max()) {
    return bad_label(" is out of the int32 range");
  }
  out.label = static_cast<std::int32_t>(label);
  out.entries.clear();
  s = end;
  for (;;) {
    while (*s == ' ' || *s == '\t' || *s == '\r') ++s;
    if (*s == '\0' || *s == '\n' || *s == '#') break;
    long idx = std::strtol(s, &end, 10);
    if (end == s || *end != ':') {
      *error = at_line(line_no, "malformed pair (expected index:value)");
      return ParseStatus::kError;
    }
    if (idx < 1) {
      *error = at_line(line_no, "feature index " + std::to_string(idx) +
                                    " (indices are 1-based)");
      return ParseStatus::kError;
    }
    s = end + 1;
    double val = std::strtod(s, &end);
    if (end == s) {
      *error = at_line(line_no,
                       "missing value after index " + std::to_string(idx));
      return ParseStatus::kError;
    }
    if (!std::isfinite(val)) {
      *error = at_line(line_no, "non-finite value at index " +
                                    std::to_string(idx));
      return ParseStatus::kError;
    }
    s = end;
    out.entries.emplace_back(static_cast<Index>(idx - 1),
                             static_cast<Scalar>(val));
  }
  return ParseStatus::kOk;
}

// Appends `entries` to the CSR arrays as one row, in ascending index order
// with the last value of a repeated index winning and zeros dropped: the
// row a densifying reader would hold.
void append_row(std::vector<std::pair<Index, Scalar>>& entries,
                std::vector<Index>& row_ptr, std::vector<Index>& cols,
                std::vector<Scalar>& vals) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [idx, val] = entries[i];
    const bool repeated =
        i + 1 < entries.size() && entries[i + 1].first == idx;
    if (repeated || val == Scalar{0}) continue;
    cols.push_back(idx);
    vals.push_back(val);
  }
  row_ptr.push_back(static_cast<Index>(vals.size()));
}

std::optional<Dataset> build_dataset(std::istream& in,
                                     const LibsvmReadOptions& options,
                                     const std::string& default_name,
                                     std::string* error) {
  std::vector<std::int32_t> raw_labels;
  std::vector<Index> row_ptr{0};
  std::vector<Index> cols;
  std::vector<Scalar> vals;
  SparseExample ex;
  std::string line;
  std::size_t line_no = 0;
  std::size_t max_index_line = 0;
  Index max_index = -1;
  while (std::getline(in, line)) {
    ++line_no;
    const ParseStatus status = parse_line(line, line_no, ex, error);
    if (status == ParseStatus::kError) return std::nullopt;
    if (status == ParseStatus::kSkip) continue;
    for (const auto& [idx, val] : ex.entries) {
      if (idx > max_index) {
        max_index = idx;
        max_index_line = line_no;
      }
    }
    raw_labels.push_back(ex.label);
    append_row(ex.entries, row_ptr, cols, vals);
    if (options.max_examples > 0 &&
        static_cast<Index>(raw_labels.size()) >= options.max_examples) {
      break;
    }
  }
  if (raw_labels.empty()) {
    *error = "no examples found";
    return std::nullopt;
  }

  Index dim = options.dim > 0 ? options.dim : max_index + 1;
  if (dim <= 0) {
    *error = "could not infer dimension (no features seen)";
    return std::nullopt;
  }
  if (max_index >= dim) {
    *error = at_line(max_index_line,
                     "feature index " + std::to_string(max_index + 1) +
                         " exceeds dimension " + std::to_string(dim));
    return std::nullopt;
  }

  // Remap raw labels to contiguous ids. Sorted (std::map) so the mapping is
  // deterministic regardless of example order: -1 -> 0, +1 -> 1, etc.
  std::map<std::int32_t, std::int32_t> label_ids;
  for (const std::int32_t raw : raw_labels) {
    label_ids.emplace(raw, 0);
  }
  std::int32_t next_id = 0;
  for (auto& [raw, id] : label_ids) {
    id = next_id++;
  }
  std::vector<std::int32_t> labels(raw_labels.size());
  for (std::size_t r = 0; r < raw_labels.size(); ++r) {
    labels[r] = label_ids.at(raw_labels[r]);
  }
  std::string name =
      options.dataset_name.empty() ? default_name : options.dataset_name;
  return Dataset(std::move(name),
                 tensor::CsrMatrix(dim, std::move(row_ptr), std::move(cols),
                                   std::move(vals)),
                 std::move(labels), next_id < 2 ? 2 : next_id);
}

}  // namespace

std::optional<Dataset> try_read_libsvm(const std::string& path,
                                       const LibsvmReadOptions& options,
                                       std::string* error) {
  std::string local;
  std::string* err = error != nullptr ? error : &local;
  std::ifstream in(path);
  if (!in.good()) {
    *err = "cannot open input file: " + path;
    return std::nullopt;
  }
  auto dataset = build_dataset(in, options, path, err);
  if (!dataset.has_value()) *err = path + ": " + *err;
  return dataset;
}

std::optional<Dataset> try_read_libsvm_string(const std::string& content,
                                              const LibsvmReadOptions& options,
                                              std::string* error) {
  std::string local;
  std::istringstream in(content);
  return build_dataset(in, options, "inline",
                       error != nullptr ? error : &local);
}

Dataset read_libsvm(const std::string& path, const LibsvmReadOptions& options) {
  std::string error;
  auto dataset = try_read_libsvm(path, options, &error);
  HETSGD_ASSERT(dataset.has_value(), ("libsvm: " + error).c_str());
  return std::move(*dataset);
}

void write_libsvm(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  HETSGD_ASSERT(out.good(), "libsvm: cannot open output file");
  const Index n = dataset.example_count();
  const tensor::BatchView rows = dataset.features();
  for (Index r = 0; r < n; ++r) {
    out << dataset.labels()[static_cast<std::size_t>(r)];
    const auto write = [&out](Index c, Scalar v) {
      if (v != Scalar{0}) out << ' ' << (c + 1) << ':' << v;
    };
    if (rows.is_csr()) {
      const tensor::CsrView& csr = rows.csr();
      for (Index q = csr.row_ptr()[r]; q < csr.row_ptr()[r + 1]; ++q) {
        write(csr.col()[q], csr.val()[q]);
      }
    } else {
      const Scalar* row = rows.dense().row(r);
      for (Index c = 0; c < dataset.dim(); ++c) write(c, row[c]);
    }
    out << '\n';
  }
  HETSGD_ASSERT(out.good(), "libsvm: write failed");
}

}  // namespace hetsgd::data
