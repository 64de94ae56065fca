// Tiny command-line flag parser for benches and examples.
//
// Supports --key value and --key=value forms plus boolean switches.
// Unknown flags abort with a usage message listing registered flags, and
// so do integers out of int64 range, non-finite floats and bool values
// other than true/false, 1/0, yes/no — a mistyped sweep parameter must not
// silently run the default experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hetsgd {

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
