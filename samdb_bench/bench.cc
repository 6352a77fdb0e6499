#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.h"
#include "obs/json.h"

namespace samdb_bench {

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    // Non-finite values are not JSON; they only arise from a failed phase,
    // which the ledger already marks incorrect.
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + sam::obs::EscapeJson(metrics_[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           sam::obs::EscapeJson(metrics_[i].unit) + "\"}";
  }
  return out + "}";
}

void Ledger::Check(bool ok, const std::string& what) {
  if (!ok) {
    violations_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Ledger::Op(bool ok, const std::string& what) {
  AddOps(1, ok ? 0 : 1);
  Check(ok, what);
}

void Ledger::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Ledger::Digest(const std::string& name, uint64_t value) {
  for (const auto& [n, v] : digests_) {
    if (n == name) {
      Check(v == value, name + " is the same in every round");
      return;
    }
  }
  digests_.push_back({name, value});
}

std::string Ledger::ViolationsJson() const {
  std::string out = "[";
  for (size_t i = 0; i < violations_.size(); ++i) {
    out += (i ? ", \"" : "\"") + sam::obs::EscapeJson(violations_[i]) + "\"";
  }
  return out + "]";
}

std::string Ledger::DigestsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < digests_.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digests_[i].second));
    out += (i ? ", \"" : "\"") + digests_[i].first + "\": \"" + buf + "\"";
  }
  return out + "}";
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (p == 50) {
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

std::vector<std::filesystem::path> FilesUnder(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file()) files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

uint64_t DirectoryDigest(const std::string& dir) {
  const auto files = FilesUnder(dir);
  if (files.empty()) return 0;
  uint64_t h = Fnv1a(nullptr, 0);
  for (const auto& f : files) {
    const std::string rel = std::filesystem::relative(f, dir).string();
    h = Fnv1a(rel.data(), rel.size(), h);
    std::ifstream in(f, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h = Fnv1a(bytes.data(), bytes.size(), h);
  }
  return h;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& f : FilesUnder(dir)) total += std::filesystem::file_size(f);
  return total;
}

}  // namespace samdb_bench
