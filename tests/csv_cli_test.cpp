#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/csv_writer.hpp"
#include "common/logging.hpp"

namespace hetsgd {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       "hetsgd_csv_test.csv")
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b", "c"});
    csv.row(std::vector<double>{1.0, 2.5, -3.0});
    csv.row(std::vector<std::string>{"x", "y", "z"});
    csv.flush();
  }
  EXPECT_EQ(read_file(path_), "a,b,c\n1,2.5,-3\nx,y,z\n");
}

TEST_F(CsvTest, DoublesRoundTripPrecision) {
  {
    CsvWriter csv(path_, {"v"});
    csv.row(std::vector<double>{0.1234567891});
    csv.flush();
  }
  std::string content = read_file(path_);
  EXPECT_NE(content.find("0.1234567891"), std::string::npos);
}

TEST_F(CsvTest, PathAccessor) {
  CsvWriter csv(path_, {"v"});
  EXPECT_EQ(csv.path(), path_);
}

class CliTest : public ::testing::Test {
 protected:
  std::vector<char*> make_argv(std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("prog"));
    for (auto& a : args) argv.push_back(a.data());
    return argv;
  }
};

TEST_F(CliTest, ParsesAllTypes) {
  bool flag = false;
  std::int64_t count = 5;
  double rate = 0.5;
  std::string name = "default";
  CliParser cli("prog", "test");
  cli.add_flag("verbose", &flag, "flag");
  cli.add_int("count", &count, "int");
  cli.add_double("rate", &rate, "double");
  cli.add_string("name", &name, "string");

  std::vector<std::string> args{"--verbose", "--count", "42",
                                "--rate=2.5", "--name", "hello"};
  auto argv = make_argv(args);
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flag);
  EXPECT_EQ(count, 42);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(name, "hello");
}

TEST_F(CliTest, DefaultsWhenAbsent) {
  std::int64_t count = 7;
  CliParser cli("prog", "test");
  cli.add_int("count", &count, "int");
  std::vector<std::string> args{};
  auto argv = make_argv(args);
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(count, 7);
}

TEST_F(CliTest, HelpReturnsFalse) {
  CliParser cli("prog", "test");
  std::vector<std::string> args{"--help"};
  auto argv = make_argv(args);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST_F(CliTest, UsageListsFlags) {
  std::int64_t count = 7;
  CliParser cli("prog", "my description");
  cli.add_int("count", &count, "number of things");
  std::string usage = cli.usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("number of things"), std::string::npos);
  EXPECT_NE(usage.find("default: 7"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagDies) {
  CliParser cli("prog", "test");
  std::vector<std::string> args{"--nope"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST_F(CliTest, BadIntegerDies) {
  std::int64_t count = 0;
  CliParser cli("prog", "test");
  cli.add_int("count", &count, "int");
  std::vector<std::string> args{"--count", "abc"};
  auto argv = make_argv(args);
  EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
              ::testing::ExitedWithCode(2), "invalid integer");
}

TEST_F(CliTest, OutOfRangeIntegerDies) {
  std::int64_t count = 0;
  CliParser cli("prog", "test");
  cli.add_int("n", &count, "int");
  // One past int64's range in either direction; strtoll would clamp both.
  for (const char* v : {"99999999999999999999", "-9223372036854775809"}) {
    std::vector<std::string> args{"--n", v};
    auto argv = make_argv(args);
    EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "out of range")
        << v;
  }
}

TEST_F(CliTest, NonFiniteDoubleDies) {
  double rate = 0.5;
  CliParser cli("prog", "test");
  cli.add_double("d", &rate, "double");
  // 1e999 overflows to inf; the others spell a non-finite value directly.
  for (const char* v : {"1e999", "-1e999", "inf", "nan"}) {
    std::vector<std::string> args{"--d", v};
    auto argv = make_argv(args);
    EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "not finite")
        << v;
  }
}

TEST_F(CliTest, MisspelledBoolDies) {
  bool flag = false;
  CliParser cli("prog", "test");
  cli.add_flag("b", &flag, "flag");
  for (const char* v : {"ture", "on", "TRUE", ""}) {
    std::vector<std::string> args{std::string("--b=") + v};
    auto argv = make_argv(args);
    EXPECT_EXIT(cli.parse(static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "invalid bool")
        << v;
  }
}

TEST_F(CliTest, ParsesEveryBoolSpelling) {
  const std::pair<const char*, bool> spellings[] = {
      {"true", true}, {"1", true}, {"yes", true},
      {"false", false}, {"0", false}, {"no", false}};
  for (const auto& [spelling, want] : spellings) {
    for (const bool start : {false, true}) {
      bool flag = start;
      CliParser cli("prog", "test");
      cli.add_flag("b", &flag, "flag");
      std::vector<std::string> args{std::string("--b=") + spelling};
      auto argv = make_argv(args);
      EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
      EXPECT_EQ(flag, want) << spelling << " from " << start;
    }
  }
}

TEST(NumberParser, AcceptsWholeNumbersInRange) {
  std::int64_t i = 0;
  double d = 0.0;
  EXPECT_EQ(parse_int("-42", -100, 100, &i), nullptr);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(parse_int("2147483647", 0, 2147483647, &i), nullptr);
  EXPECT_EQ(i, 2147483647);
  EXPECT_EQ(parse_finite("2.5e-3", &d), nullptr);
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
}

TEST(NumberParser, RejectsWhatCannotBeRepresented) {
  std::int64_t i = 7;
  double d = 7.0;
  EXPECT_STREQ(parse_int("12abc", 0, 100, &i), "invalid integer");
  EXPECT_STREQ(parse_int("", 0, 100, &i), "invalid integer");
  EXPECT_STREQ(parse_int("101", 0, 100, &i), "integer out of range");
  EXPECT_STREQ(parse_int("4294967296", 0, 2147483647, &i),
               "integer out of range");
  EXPECT_STREQ(parse_int("99999999999999999999", INT64_MIN, INT64_MAX, &i),
               "integer out of range");
  EXPECT_STREQ(parse_finite("0.5x", &d), "invalid float");
  EXPECT_STREQ(parse_finite("nan", &d), "float not finite");
  EXPECT_STREQ(parse_finite("-inf", &d), "float not finite");
  EXPECT_STREQ(parse_finite("1e999", &d), "float not finite");
  EXPECT_STREQ(parse_finite("1e-400", &d), "float out of range");
  // A rejected value leaves the output alone.
  EXPECT_EQ(i, 7);
  EXPECT_EQ(d, 7.0);
}

TEST(SpecTokenizer, SplitsEventsAndParameters) {
  std::vector<SpecEvent> events;
  std::string error;
  ASSERT_TRUE(tokenize_spec("die:worker=1,,at=0.5;;join:;stall:factor=",
                            "fault", &events, &error))
      << error;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].text, "die:worker=1,,at=0.5");
  EXPECT_EQ(events[0].kind, "die");
  ASSERT_EQ(events[0].params.size(), 2u);
  EXPECT_EQ(events[0].params[0],
            std::make_pair(std::string("worker"), std::string("1")));
  EXPECT_EQ(events[0].params[1],
            std::make_pair(std::string("at"), std::string("0.5")));
  EXPECT_EQ(events[1].kind, "join");
  EXPECT_TRUE(events[1].params.empty());
  ASSERT_EQ(events[2].params.size(), 1u);
  EXPECT_EQ(events[2].params[0].second, "");
  EXPECT_TRUE(tokenize_spec("", "fault", &events, &error));
  EXPECT_TRUE(events.empty());
}

TEST(SpecTokenizer, RejectsMissingSeparators) {
  std::vector<SpecEvent> events;
  std::string error;
  EXPECT_FALSE(tokenize_spec("die", "fault", &events, &error));
  EXPECT_EQ(error, "fault event missing ':' — die");
  EXPECT_FALSE(tokenize_spec("join:kind=gpu,at", "elastic", &events, &error));
  EXPECT_EQ(error, "elastic parameter missing '=' — at");
}

TEST(Logging, SetAndGet) {
  LogLevel old = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  set_log_level(old);
}

}  // namespace
}  // namespace hetsgd
