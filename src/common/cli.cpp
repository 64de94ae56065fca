#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace hetsgd {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  // --help is implicit.
}

void CliParser::add_flag(const std::string& name, bool* value,
                         const std::string& help) {
  flags_.push_back({name, Kind::kBool, value, help, *value ? "true" : "false"});
}

void CliParser::add_int(const std::string& name, std::int64_t* value,
                        const std::string& help) {
  flags_.push_back({name, Kind::kInt, value, help, std::to_string(*value)});
}

void CliParser::add_double(const std::string& name, double* value,
                           const std::string& help) {
  std::ostringstream os;
  os << *value;
  flags_.push_back({name, Kind::kDouble, value, help, os.str()});
}

void CliParser::add_string(const std::string& name, std::string* value,
                           const std::string& help) {
  flags_.push_back({name, Kind::kString, value, help, *value});
}

const CliParser::Flag* CliParser::find(const std::string& name) const {
  for (const auto& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f.name;
    switch (f.kind) {
      case Kind::kBool:   os << " (bool)"; break;
      case Kind::kInt:    os << " <int>"; break;
      case Kind::kDouble: os << " <float>"; break;
      case Kind::kString: os << " <string>"; break;
    }
    os << "  " << f.help << " [default: " << f.default_repr << "]\n";
  }
  os << "  --help  Show this message\n";
  return os.str();
}

bool CliParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      // hetsgd-lint: allow(stdout-logging) --help output is the program's
      // product here, not diagnostics; it belongs on stdout.
      std::printf("%s", usage().c_str());
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s", arg.c_str(),
                   usage().c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Flag* flag = find(name);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", name.c_str(),
                   usage().c_str());
      std::exit(2);
    }
    if (flag->kind == Kind::kBool && !has_value) {
      *static_cast<bool*>(flag->target) = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        std::exit(2);
      }
      value = argv[++i];
    }
    char* end = nullptr;
    switch (flag->kind) {
      case Kind::kBool: {
        const bool yes = value == "true" || value == "1" || value == "yes";
        if (!yes && value != "false" && value != "0" && value != "no") {
          std::fprintf(stderr,
                       "flag --%s: invalid bool '%s' (true/false, 1/0, "
                       "yes/no)\n",
                       name.c_str(), value.c_str());
          std::exit(2);
        }
        *static_cast<bool*>(flag->target) = yes;
        break;
      }
      case Kind::kInt: {
        errno = 0;
        long long v = std::strtoll(value.c_str(), &end, 10);
        if (errno == ERANGE) {
          std::fprintf(stderr, "flag --%s: integer '%s' out of range\n",
                       name.c_str(), value.c_str());
          std::exit(2);
        }
        if (end == value.c_str() || *end != '\0') {
          std::fprintf(stderr, "flag --%s: invalid integer '%s'\n", name.c_str(),
                       value.c_str());
          std::exit(2);
        }
        *static_cast<std::int64_t*>(flag->target) = v;
        break;
      }
      case Kind::kDouble: {
        double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
          std::fprintf(stderr, "flag --%s: invalid float '%s'\n", name.c_str(),
                       value.c_str());
          std::exit(2);
        }
        if (!std::isfinite(v)) {
          std::fprintf(stderr, "flag --%s: float '%s' is not finite\n",
                       name.c_str(), value.c_str());
          std::exit(2);
        }
        *static_cast<double*>(flag->target) = v;
        break;
      }
      case Kind::kString:
        *static_cast<std::string*>(flag->target) = value;
        break;
    }
  }
  return true;
}

}  // namespace hetsgd
