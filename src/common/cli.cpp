#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace hetsgd {

const char* parse_int(const std::string& s, std::int64_t lo, std::int64_t hi,
                      std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return "invalid integer";
  if (errno == ERANGE || v < lo || v > hi) return "integer out of range";
  *out = v;
  return nullptr;
}

const char* parse_finite(const std::string& s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return "invalid float";
  if (!std::isfinite(v)) return "float not finite";
  if (errno == ERANGE) return "float out of range";
  *out = v;
  return nullptr;
}

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (std::size_t end; (end = s.find(sep, begin)) != std::string::npos;
       begin = end + 1) {
    parts.push_back(s.substr(begin, end - begin));
  }
  parts.push_back(s.substr(begin));
  return parts;
}

}  // namespace

bool tokenize_spec(const std::string& spec, const std::string& what,
                   std::vector<SpecEvent>* events, std::string* error) {
  events->clear();
  for (const std::string& item : split(spec, ';')) {
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      if (error != nullptr) *error = what + " event missing ':' — " + item;
      return false;
    }
    SpecEvent ev{item, item.substr(0, colon), {}};
    for (const std::string& kv : split(item.substr(colon + 1), ',')) {
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) *error = what + " parameter missing '=' — " + kv;
        return false;
      }
      ev.params.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    events->push_back(std::move(ev));
  }
  return true;
}

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
        auto* target = static_cast<std::int64_t*>(flag->target);
        if (const char* why =
                parse_int(value, std::numeric_limits<std::int64_t>::min(),
                          std::numeric_limits<std::int64_t>::max(), target)) {
          std::fprintf(stderr, "flag --%s: %s '%s'\n", name.c_str(), why,
                       value.c_str());
          std::exit(2);
        }
        break;
      }
      case Kind::kDouble: {
        if (const char* why =
                parse_finite(value, static_cast<double*>(flag->target))) {
          std::fprintf(stderr, "flag --%s: %s '%s'\n", name.c_str(), why,
                       value.c_str());
          std::exit(2);
        }
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
