#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace sam {

/// \brief Minimal `--key=value` flag map shared by `samdb_cli` and the bench
/// harnesses.
///
/// A bare `--key` reads as `"true"`. Positional arguments are ignored with a
/// warning. Every accessor marks its key as read, so `Unread()` names the
/// flags a command never asked for (typos, removed flags).
class Flags {
 public:
  /// Parses `argv[start..argc)`.
  Flags(int argc, char** argv, int start);

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;

  /// Checked numeric flag access: malformed values (junk, trailing garbage,
  /// overflow) fail with an InvalidArgument naming the flag instead of being
  /// silently truncated to whatever strtoll made of the prefix.
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;

  /// Checked count flag: GetInt plus a lower bound. A value below `min`
  /// fails with an InvalidArgument naming the flag, so a negative count is
  /// never cast to a huge size_t.
  Result<int64_t> GetCount(const std::string& key, int64_t fallback,
                           int64_t min) const;

  Result<double> GetDouble(const std::string& key, double fallback) const;

  /// True for `--key`, `--key=true` and `--key=1`.
  bool GetBool(const std::string& key) const;

  bool Has(const std::string& key) const;

  /// Flags given on the command line that no accessor ever asked for.
  std::vector<std::string> Unread() const;

 private:
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace sam
