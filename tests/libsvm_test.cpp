#include "data/libsvm_io.hpp"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include <gtest/gtest.h>

namespace hetsgd::data {
namespace {

// Parses `content`, failing the test on a parse error.
Dataset parse(const std::string& content,
              const LibsvmReadOptions& options = {}) {
  std::string error;
  std::optional<Dataset> d = try_read_libsvm_string(content, options, &error);
  EXPECT_TRUE(d.has_value()) << error;
  return d.has_value() ? std::move(*d) : Dataset();
}

TEST(Libsvm, ParsesBasicFile) {
  const std::string content =
      "+1 1:0.5 3:1.5\n"
      "-1 2:2.0\n";
  Dataset d = parse(content, {});
  EXPECT_EQ(d.example_count(), 2);
  EXPECT_EQ(d.dim(), 3);
  EXPECT_EQ(d.num_classes(), 2);
  // Sorted label mapping: -1 -> 0, +1 -> 1.
  EXPECT_EQ(d.labels()[0], 1);
  EXPECT_EQ(d.labels()[1], 0);
  EXPECT_DOUBLE_EQ(d.features().at(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(d.features().at(0, 1), 0.0);  // densified zero
  EXPECT_DOUBLE_EQ(d.features().at(0, 2), 1.5);
  EXPECT_DOUBLE_EQ(d.features().at(1, 1), 2.0);
}

TEST(Libsvm, SkipsBlankAndCommentLines) {
  const std::string content =
      "# a comment\n"
      "\n"
      "1 1:1\n"
      "   \n"
      "2 1:2\n";
  Dataset d = parse(content, {});
  EXPECT_EQ(d.example_count(), 2);
}

TEST(Libsvm, MulticlassLabelsRemapInSortedOrder) {
  const std::string content = "3 1:1\n1 1:1\n7 1:1\n1 1:1\n";
  Dataset d = parse(content, {});
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.labels()[0], 1);  // 3 -> 1
  EXPECT_EQ(d.labels()[1], 0);  // 1 -> 0
  EXPECT_EQ(d.labels()[2], 2);  // 7 -> 2
}

TEST(Libsvm, ZeroBasedLabelsPreserved) {
  const std::string content = "0 1:1\n1 1:1\n2 1:1\n";
  Dataset d = parse(content, {});
  EXPECT_EQ(d.labels()[0], 0);
  EXPECT_EQ(d.labels()[1], 1);
  EXPECT_EQ(d.labels()[2], 2);
}

TEST(Libsvm, DimOverride) {
  LibsvmReadOptions options;
  options.dim = 10;
  Dataset d = parse("1 2:1\n", options);
  EXPECT_EQ(d.dim(), 10);
}

TEST(Libsvm, MaxExamplesCap) {
  LibsvmReadOptions options;
  options.max_examples = 2;
  Dataset d = parse("1 1:1\n1 1:2\n1 1:3\n1 1:4\n", options);
  EXPECT_EQ(d.example_count(), 2);
}

TEST(Libsvm, DatasetNameOption) {
  LibsvmReadOptions options;
  options.dataset_name = "custom";
  Dataset d = parse("1 1:1\n", options);
  EXPECT_EQ(d.name(), "custom");
}

TEST(Libsvm, TryReportsNoExamples) {
  std::string error;
  auto d = try_read_libsvm_string("# nothing\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("no examples"), std::string::npos) << error;
}

TEST(Libsvm, FloatLabelsAndValues) {
  Dataset d = parse("2.0 1:1e-3 2:-4.5\n1.0 1:2\n", {});
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_DOUBLE_EQ(d.features().at(0, 0), 1e-3);
  EXPECT_DOUBLE_EQ(d.features().at(0, 1), -4.5);
}

TEST(Libsvm, WriteReadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_libsvm_rt.txt")
          .string();
  tensor::Matrix f{{0.5, 0.0, 1.25}, {0.0, 2.0, 0.0}};
  Dataset original("rt", std::move(f), {1, 0}, 2);
  write_libsvm(original, path);

  LibsvmReadOptions options;
  options.dim = 3;
  Dataset loaded = read_libsvm(path, options);
  EXPECT_EQ(loaded.example_count(), 2);
  EXPECT_EQ(loaded.dim(), 3);
  for (tensor::Index r = 0; r < 2; ++r) {
    EXPECT_EQ(loaded.labels()[static_cast<std::size_t>(r)],
              original.labels()[static_cast<std::size_t>(r)]);
    for (tensor::Index c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(loaded.features().at(r, c),
                       original.features().at(r, c));
    }
  }
  std::remove(path.c_str());
}

TEST(Libsvm, MissingFileDies) {
  EXPECT_DEATH(read_libsvm("/nonexistent/path.libsvm", {}), "cannot open");
}

// --- try_* API: malformed input surfaces line-numbered diagnostics instead
// of aborting, so callers with a recovery path (resume, interactive tools)
// can report and continue.

TEST(Libsvm, TryReportsMalformedPairWithLineNumber) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n2 abc\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed pair"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsMissingLabel) {
  std::string error;
  auto d = try_read_libsvm_string("x 1:1\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("label"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsZeroIndex) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n1 1:1\n1 0:5\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("1-based"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsMissingValue) {
  std::string error;
  auto d = try_read_libsvm_string("1 2:\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("missing value"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsNonFiniteValue) {
  std::string error;
  auto d = try_read_libsvm_string("1 1:nan\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsDimOverflowWithOffendingLine) {
  LibsvmReadOptions options;
  options.dim = 2;
  std::string error;
  auto d = try_read_libsvm_string("1 1:1\n1 5:1\n1 2:1\n", options, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

// Labels are class ids: a fractional label names no class, and one beyond
// int32 cannot be converted to one.
TEST(Libsvm, TryReportsNonIntegerLabel) {
  std::string error;
  auto d = try_read_libsvm_string("0.2 1:1\n0.7 1:2\n", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("not an integer"), std::string::npos) << error;
}

TEST(Libsvm, TryReportsLabelOutOfRange) {
  for (const char* label : {"1e30", "-2147483649", "2147483648"}) {
    const std::string content = std::string("1 1:1\n") + label + " 1:2\n";
    std::string error;
    auto d = try_read_libsvm_string(content, {}, &error);
    EXPECT_FALSE(d.has_value()) << label;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("int32"), std::string::npos) << error;
  }
  // The int32 bounds themselves are labels.
  std::string error;
  auto d = try_read_libsvm_string("-2147483648 1:1\n2147483647 1:2\n", {},
                                  &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->num_classes(), 2);
}

TEST(Libsvm, TryReportsNonFiniteLabel) {
  for (const char* label : {"nan", "inf", "-inf"}) {
    const std::string content = std::string("1 1:1\n") + label + " 1:2\n";
    std::string error;
    auto d = try_read_libsvm_string(content, {}, &error);
    EXPECT_FALSE(d.has_value()) << label;
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite label"), std::string::npos) << error;
  }
}

TEST(Libsvm, IntegralLabelSpellingsShareAClass) {
  // Every spelling of 2 names the same class.
  Dataset d = parse(
      "2 1:1\n2.0 1:1\n+2 1:1\n2e0 1:1\n20e-1 1:1\n-1 1:1\n", {});
  EXPECT_EQ(d.num_classes(), 2);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(d.labels()[r], 1) << r;
  EXPECT_EQ(d.labels()[5], 0);  // -1 sorts first
}

// The reader writes CSR rows: a repeated index keeps its last value, and
// indices may come in any order, as when the rows were densified.
TEST(Libsvm, RepeatedAndUnsortedIndicesReadAsDense) {
  Dataset d = parse("1 3:1 1:2 3:4 2:0\n0 2:5 2:0\n", {});
  ASSERT_EQ(d.dim(), 3);
  EXPECT_EQ(d.features().at(0, 0), 2.0);
  EXPECT_EQ(d.features().at(0, 1), 0.0);
  EXPECT_EQ(d.features().at(0, 2), 4.0);
  EXPECT_EQ(d.features().at(1, 1), 0.0);
  EXPECT_EQ(d.nonzero_count(), 2);
}

// A wide file at 1% nonzero is stored CSR (dataset.hpp's rule), and
// round-trips through write_libsvm.
TEST(Libsvm, WideSparseFileIsStoredCsr) {
  std::string content;
  for (int r = 0; r < 20; ++r) {
    content += std::to_string(r % 2) + " " + std::to_string(r * 7 + 1) +
               ":0.5 " + std::to_string(r * 7 + 3) + ":-1.5\n";
  }
  LibsvmReadOptions options;
  options.dim = 200;
  Dataset d = parse(content, options);
  EXPECT_TRUE(d.csr());
  EXPECT_EQ(d.nonzero_count(), 40);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_libsvm_csr.txt")
          .string();
  write_libsvm(d, path);
  Dataset loaded = read_libsvm(path, options);
  EXPECT_TRUE(loaded.csr());
  for (tensor::Index r = 0; r < 20; ++r) {
    EXPECT_EQ(loaded.labels()[static_cast<std::size_t>(r)],
              d.labels()[static_cast<std::size_t>(r)]);
    for (tensor::Index c = 0; c < 200; ++c) {
      EXPECT_EQ(loaded.features().at(r, c), d.features().at(r, c));
    }
  }
  std::remove(path.c_str());
}

TEST(Libsvm, TryMissingFileReturnsError) {
  std::string error;
  auto d = try_read_libsvm("/nonexistent/path.libsvm", {}, &error);
  EXPECT_FALSE(d.has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(Libsvm, TryParsesGoodInput) {
  std::string error;
  auto d = try_read_libsvm_string("+1 1:0.5\n-1 1:1.0\n", {}, &error);
  ASSERT_TRUE(d.has_value()) << error;
  EXPECT_EQ(d->example_count(), 2);
  EXPECT_TRUE(error.empty());
}

}  // namespace
}  // namespace hetsgd::data
