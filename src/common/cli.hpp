// Tiny command-line flag parser for benches and examples, and the strict
// number parser and spec tokenizer it shares with the fault and elastic
// plans.
//
// Supports --key value and --key=value forms plus boolean switches.
// Unknown flags abort with a usage message listing registered flags, and
// so do integers out of int64 range, non-finite floats and bool values
// other than true/false, 1/0, yes/no — a mistyped sweep parameter must not
// silently run the default experiment.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hetsgd {

// Strict number parsing: all of `s` must be one base-10 number. Each
// returns nullptr on success, or why `s` was rejected ("invalid integer",
// "integer out of range", "invalid float", "float not finite", "float out
// of range"), leaving *out unchanged. parse_int rejects values strtoll
// cannot represent (ERANGE) and values outside [lo, hi]; parse_finite
// rejects nan, inf, overflow and underflow.
const char* parse_int(const std::string& s, std::int64_t lo, std::int64_t hi,
                      std::int64_t* out);
const char* parse_finite(const std::string& s, double* out);

// One "kind:key=value,key=value" event of a plan spec.
struct SpecEvent {
  std::string text;  // the event as written
  std::string kind;
  std::vector<std::pair<std::string, std::string>> params;
};

// Splits a plan spec "event;event;..." into its events, skipping empty
// events and parameters. On a missing ':' or '=' returns false with an
// error naming the plan (`what`: "fault", "elastic").
bool tokenize_spec(const std::string& spec, const std::string& what,
                   std::vector<SpecEvent>* events, std::string* error);

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  // Registration. The returned pointer stays owned by the parser; read the
  // value after parse(). Defaults are used when the flag is absent.
  void add_flag(const std::string& name, bool* value, const std::string& help);
  void add_int(const std::string& name, std::int64_t* value,
               const std::string& help);
  void add_double(const std::string& name, double* value,
                  const std::string& help);
  void add_string(const std::string& name, std::string* value,
                  const std::string& help);

  // Parses argv. On --help prints usage and returns false (caller exits 0).
  // On error prints usage to stderr and aborts.
  bool parse(int argc, char** argv);

  std::string usage() const;

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  struct Flag {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
  };

  const Flag* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
};

}  // namespace hetsgd
