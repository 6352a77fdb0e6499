#include "common/flags.h"

#include <cstdio>

#include "common/string_util.h"

namespace sam {

Flags::Flags(int argc, char** argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      std::fprintf(stderr, "warning: ignoring positional argument '%s'\n",
                   arg.c_str());
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Flags::Get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = Find(key);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> Flags::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = Find(key);
  if (it == values_.end()) return fallback;
  auto v = ParseInt64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("--" + key + ": " + v.status().message());
  }
  return v;
}

Result<int64_t> Flags::GetCount(const std::string& key, int64_t fallback,
                                int64_t min) const {
  SAM_ASSIGN_OR_RETURN(const int64_t v, GetInt(key, fallback));
  if (v < min) {
    return Status::InvalidArgument("--" + key + " must be >= " +
                                   std::to_string(min));
  }
  return v;
}

Result<double> Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = Find(key);
  if (it == values_.end()) return fallback;
  auto v = ParseFloat64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("--" + key + ": " + v.status().message());
  }
  return v;
}

bool Flags::GetBool(const std::string& key) const {
  return Get(key) == "true" || Get(key) == "1";
}

bool Flags::Has(const std::string& key) const {
  return Find(key) != values_.end();
}

std::vector<std::string> Flags::Unread() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) out.push_back(key);
  }
  return out;
}

std::map<std::string, std::string>::const_iterator Flags::Find(
    const std::string& key) const {
  read_.insert(key);
  return values_.find(key);
}

}  // namespace sam
