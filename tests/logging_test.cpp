// Tests for the leveled logger (src/common/logging) and edge cases of
// CsvWriter beyond the basics covered in csv_cli_test: the logger is the
// one channel every thread's diagnostics funnel through, so its filtering,
// labels and line-atomicity guarantees each get a pin here.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv_writer.hpp"
#include "common/logging.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define HETSGD_TEST_HAS_DUP 1
#endif

namespace hetsgd {
namespace {

// Restores the global log level on scope exit so tests cannot leak a
// threshold into each other.
class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogLevelTest, SetAndGetRoundTrip) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
}

#if defined(HETSGD_TEST_HAS_DUP)

// Redirects stderr (fd 2) to a file for the duration of the scope; the
// logger writes with fprintf(stderr, ...), so capturing the fd is the only
// faithful way to observe it.
class StderrCapture {
 public:
  explicit StderrCapture(const std::string& path) : path_(path) {
    std::fflush(stderr);
    saved_fd_ = ::dup(2);
    std::FILE* f = std::fopen(path.c_str(), "w");
    ::dup2(fileno(f), 2);
    std::fclose(f);
  }
  ~StderrCapture() { release(); }

  std::string take() {
    release();
    std::ifstream in(path_);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

 private:
  void release() {
    if (saved_fd_ < 0) return;
    std::fflush(stderr);
    ::dup2(saved_fd_, 2);
    ::close(saved_fd_);
    saved_fd_ = -1;
  }
  std::string path_;
  int saved_fd_ = -1;
};

TEST(LogMessageTest, ThresholdFiltersLowerLevels) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kWarn);
  StderrCapture capture(testing::TempDir() + "logging_threshold.txt");
  HETSGD_LOG_DEBUG("test", "dropped debug %d", 1);
  HETSGD_LOG_INFO("test", "dropped info %d", 2);
  HETSGD_LOG_WARN("test", "kept warn %d", 3);
  HETSGD_LOG_ERROR("test", "kept error %d", 4);
  const std::string out = capture.take();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("kept warn 3"), std::string::npos);
  EXPECT_NE(out.find("kept error 4"), std::string::npos);
  EXPECT_NE(out.find("[WARN ][test]"), std::string::npos);
}

TEST(LogMessageTest, EveryLevelCarriesItsLabel) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kTrace);
  StderrCapture capture(testing::TempDir() + "logging_labels.txt");
  HETSGD_LOG_TRACE("lbl", "t");
  HETSGD_LOG_DEBUG("lbl", "d");
  HETSGD_LOG_INFO("lbl", "i");
  HETSGD_LOG_WARN("lbl", "w");
  HETSGD_LOG_ERROR("lbl", "e");
  EXPECT_EQ(capture.take(),
            "[TRACE][lbl] t\n[DEBUG][lbl] d\n[INFO ][lbl] i\n"
            "[WARN ][lbl] w\n[ERROR][lbl] e\n");
}

// A message longer than the logger's buffer is cut, not split: it still
// ends in exactly one newline.
TEST(LogMessageTest, LongMessageStaysOneLine) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  StderrCapture capture(testing::TempDir() + "logging_long.txt");
  const std::string body(5000, 'x');
  HETSGD_LOG_INFO("long", "%s", body.c_str());
  const std::string out = capture.take();
  EXPECT_EQ(out.rfind("[INFO ][long] xxx", 0), 0u);
  EXPECT_EQ(out.find('\n'), out.size() - 1);
  EXPECT_LT(out.size(), body.size());
}

TEST(LogMessageTest, OffSilencesEverything) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kOff);
  StderrCapture capture(testing::TempDir() + "logging_off.txt");
  HETSGD_LOG_ERROR("test", "should not appear");
  EXPECT_TRUE(capture.take().empty());
}

TEST(LogMessageTest, InterleavedThreadsKeepLinesIntact) {
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  StderrCapture capture(testing::TempDir() + "logging_interleave.txt");
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        HETSGD_LOG_INFO("interleave", "thread=%d line=%d padpadpadpadpad", t,
                        i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string out = capture.take();

  std::istringstream lines(out);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.find("interleave") == std::string::npos) continue;  // other logs
    ++count;
    // Every line must be exactly one whole message: correct prefix, both
    // fields, and the tail marker — a torn write would break one of these.
    EXPECT_EQ(line.rfind("[INFO ][interleave] thread=", 0), 0u) << line;
    EXPECT_NE(line.find(" line="), std::string::npos) << line;
    EXPECT_NE(line.find("padpadpadpadpad"), std::string::npos) << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

#endif  // HETSGD_TEST_HAS_DUP

TEST(CsvWriterEdgeTest, EmptyStringsAndSpecialValuesWrittenVerbatim) {
  const std::string path = testing::TempDir() + "csv_edge.csv";
  {
    CsvWriter csv(path, {"a", "b", "c"});
    csv.row(std::vector<std::string>{"", "with space", "trailing,comma"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string header, data;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, data));
  EXPECT_EQ(header, "a,b,c");
  EXPECT_EQ(data, ",with space,trailing,comma");
}

TEST(CsvWriterEdgeTest, DoubleRowsKeepTenSignificantDigits) {
  const std::string path = testing::TempDir() + "csv_precision.csv";
  const double value = 0.1234567890123456789;
  {
    CsvWriter csv(path, {"x"});
    csv.row(std::vector<double>{value});
    csv.flush();
  }
  std::ifstream in(path);
  std::string header, data;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, data));
  // The writer formats with %.10g: ten significant digits survive.
  EXPECT_NEAR(std::stod(data), value, 1e-10);
}

TEST(CsvWriterEdgeTest, ManyRowsAllLand) {
  const std::string path = testing::TempDir() + "csv_many.csv";
  constexpr int kRows = 1000;
  {
    CsvWriter csv(path, {"i", "sq"});
    for (int i = 0; i < kRows; ++i) {
      csv.row(std::vector<double>{static_cast<double>(i),
                                  static_cast<double>(i) * i});
    }
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, kRows + 1);  // header + rows
}

}  // namespace
}  // namespace hetsgd
