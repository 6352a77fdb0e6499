// bench_checkpoint_io — throughput of the fault-tolerance layer: checkpoint
// save and load across snapshot sizes, the CRC32 core, and atomic file
// commits. Guards the per-epoch checkpoint overhead — the write path sits
// inside the training loop, so a regression here slows every checkpointed
// run.
//
// Each number is the median of bench::MedianSeconds samples, in MB/s.
// Results go to stdout and to BENCH_checkpoint_io.json through
// bench::WriteBenchJson. Files live in a per-run temp directory.
//
// Flags:
//   --smoke   only the smallest size of each probe, 3 samples (CI)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "ar/training_checkpoint.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "linalg/matrix.h"
#include "storage/artifact_io.h"

namespace sam {
namespace {

/// A synthetic checkpoint whose parameter payload totals roughly
/// `param_doubles` doubles — the knob that dominates snapshot size.
TrainingCheckpoint MakeCheckpoint(size_t param_doubles) {
  TrainingCheckpoint c;
  c.fingerprint = 0xfeedface;
  c.epoch = 7;
  c.step_start = 128;
  c.in_epoch = true;
  c.seconds_elapsed = 321.5;
  c.rng_state = Rng(42).SaveState();
  c.order.resize(2000);
  for (size_t i = 0; i < c.order.size(); ++i) c.order[i] = i;
  const size_t rows = 64;
  const size_t cols = std::max<size_t>(1, param_doubles / (3 * rows));
  Rng rng(9);
  for (int t = 0; t < 3; ++t) {
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
    c.params.push_back(m);
    c.adam_m.push_back(m);
    c.adam_v.push_back(m);
  }
  c.adam_step_count = 999;
  c.adam_lr = 1e-3;
  return c;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  const bool smoke = flags.GetBool("smoke");
  bench::ExitOnUnreadFlags(flags);
  const size_t samples = smoke ? 3 : 11;
  // Smoke mode keeps only the first (smallest) size of each probe.
  auto sizes = [smoke](std::vector<size_t> all) {
    if (smoke) all.resize(1);
    return all;
  };
  const bench::ScratchDir dir("bench_ckpt");
  std::vector<bench::BenchRecord> records;
  auto report = [&records](const std::string& metric, size_t bytes,
                           double sec) {
    const double mb_per_s = static_cast<double>(bytes) / sec * 1e-6;
    std::printf("%-36s %10.1f MB/s\n", metric.c_str(), mb_per_s);
    records.push_back({metric, mb_per_s, "MB/s", {}});
  };

  for (const size_t n : sizes({10'000, 100'000, 1'000'000})) {
    const TrainingCheckpoint c = MakeCheckpoint(n);
    const std::string path = dir.path() + "/c.ckpt";
    const double save_s = bench::MedianSeconds(
        [&] { SAM_CHECK(c.Save(path).ok()); }, samples);
    const size_t bytes = std::filesystem::file_size(path);
    report("checkpoint.save.d" + std::to_string(n), bytes, save_s);
    const double load_s = bench::MedianSeconds(
        [&] { SAM_CHECK(TrainingCheckpoint::Load(path).ok()); }, samples);
    report("checkpoint.load.d" + std::to_string(n), bytes, load_s);
  }
  for (const size_t n : sizes({4 << 10, 1 << 20, 16 << 20})) {
    const std::string data(n, 'x');
    uint32_t crc = 0;
    const double sec = bench::MedianSeconds(
        [&] { crc ^= Crc32(data.data(), data.size()); }, samples);
    report("crc32.b" + std::to_string(n), n, sec);
  }
  for (const size_t n : sizes({64 << 10, 4 << 20})) {
    const std::string contents(n, 'y');
    const std::string path = dir.path() + "/atomic.bin";
    const double sec = bench::MedianSeconds(
        [&] { SAM_CHECK(AtomicWriteFile(path, contents).ok()); }, samples);
    report("atomic_write.b" + std::to_string(n), n, sec);
  }

  const Status written = bench::WriteBenchJson("BENCH_checkpoint_io.json",
                                               "checkpoint_io", records);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
