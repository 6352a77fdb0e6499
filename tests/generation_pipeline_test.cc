// End-to-end tests for the crash-safe out-of-core generation pipeline:
// publish correctness, determinism, the kill-at-every-step resume sweep
// (byte-identical output databases), fingerprint guarding, memory-cap
// behaviour, and the artifact-layer fault-injection sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/metrics_registry.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "storage/artifact_io.h"
#include "storage/schema_io.h"
#include "workload/generator.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Reads every regular file under `dir` into a map keyed by relative path —
/// the byte-identity oracle for the resume and fault sweeps.
std::map<std::string, std::string> ReadTree(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    out[std::filesystem::relative(e.path(), dir).string()] = ss.str();
  }
  return out;
}

bool HasTmpFiles(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return false;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".tmp") return true;
  }
  return false;
}

Predicate Eq(const std::string& table, const std::string& col, const char* v) {
  return Predicate{table, col, PredOp::kEq, Value(std::string(v)), {}};
}

/// Literal workload defining the chain schema's column domains (same fixture
/// as generation_regression_test.cc).
Workload ChainWorkload() {
  Workload w;
  auto add = [&](std::vector<std::string> rels, Predicate p, int64_t card) {
    Query q;
    q.relations = std::move(rels);
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add({"A"}, Eq("A", "a", "m"), 1);
  add({"A"}, Eq("A", "a", "n"), 1);
  add({"A", "B"}, Eq("B", "b", "p"), 2);
  add({"A", "B"}, Eq("B", "b", "q"), 1);
  add({"A", "B", "C"}, Eq("C", "c", "u"), 2);
  add({"A", "B", "C"}, Eq("C", "c", "v"), 1);
  return w;
}

/// Briefly trained chain model: an *untrained* model's random indicators
/// give absent-child samples the heaviest IPW weights, which can starve a
/// child relation of incoming virtual mass (the in-RAM path fails the same
/// way) — a few DPS epochs teach the true indicator/fanout correlations.
/// Small FOJ sample and batch so the plan has enough steps to sweep.
std::unique_ptr<SamModel> MakeChainModel(const Database& db, SamOptions options) {
  options.foj_samples = options.foj_samples == 100000 ? 64 : options.foj_samples;
  options.generation_batch =
      options.generation_batch == 1024 ? 16 : options.generation_batch;
  options.model.hidden_sizes = {16, 16};
  options.training.epochs = 12;
  options.training.batch_size = 8;
  auto sam = SamModel::Train(db, ChainWorkload(), SchemaHints{}, 4, options);
  SAM_CHECK_OK(sam.status());
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  return sam.MoveValue();
}

Result<GenerationRunSummary> RunPipeline(const SamModel& sam,
                                         const std::string& out,
                                         const std::string& work, bool resume,
                                         uint64_t stop_after_steps = 0,
                                         std::atomic<bool>* stop_flag = nullptr) {
  GenerationPipelineOptions o;
  o.out_dir = out;
  o.work_dir = work;
  o.resume = resume;
  o.stop_after_steps = stop_after_steps;
  o.stop_flag = stop_flag;
  GenerationPipeline p(&sam, o);
  return p.Run();
}

/// Multi-batch chain fixture: enough FOJ samples for a partition fan-out of
/// 2 under the cap, but a large batch so the whole plan stays below ~20
/// steps and a kill-at-every-step sweep is affordable.
std::unique_ptr<SamModel> MakePartitionedChainModel(const Database& db) {
  SamOptions opt;
  opt.foj_samples = 8192;
  opt.generation_batch = 2048;       // 4 sample steps.
  opt.memory_cap_bytes = 4ll << 20;  // Partition fan-out 2.
  return MakeChainModel(db, opt);
}

TEST(GenerationPipelineTest, CompletesPublishesAndCleansUp) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_basic");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", /*resume=*/false);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().completed);
  EXPECT_GT(r.ValueOrDie().steps_total, 5u);
  EXPECT_EQ(r.ValueOrDie().steps_executed, r.ValueOrDie().steps_total);
  EXPECT_GT(r.ValueOrDie().spill_bytes, 0u);
  EXPECT_TRUE(r.ValueOrDie().resumed_from.empty());
  // Work dir is cleaned up after a successful publish.
  EXPECT_FALSE(std::filesystem::exists(root + "/work"));

  // The published database loads, validates and honours Alg 2's sizes.
  auto gen = LoadDatabase(root + "/out");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("A")->num_rows(), 2u);
  EXPECT_EQ(gen.ValueOrDie().FindTable("B")->num_rows(), 3u);
  EXPECT_GE(gen.ValueOrDie().FindTable("C")->num_rows(), 2u);
  EXPECT_LE(gen.ValueOrDie().FindTable("C")->num_rows(), 4u);
  EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok());
}

TEST(GenerationPipelineTest, DeterministicAcrossRuns) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_det");

  ASSERT_TRUE(
      RunPipeline(*sam, root + "/out1", root + "/work1", false).ok());
  ASSERT_TRUE(
      RunPipeline(*sam, root + "/out2", root + "/work2", false).ok());
  EXPECT_EQ(ReadTree(root + "/out1"), ReadTree(root + "/out2"));
}

TEST(GenerationPipelineTest, ResumeAtEveryStepIsByteIdentical) {
  const Database db = MakeChainDatabase();
  // The default chain model (one partition, many small batches) and the
  // multi-batch plan with partition fan-out 2.
  const auto unpartitioned = MakeChainModel(db, SamOptions{});
  const auto partitioned = MakePartitionedChainModel(db);
  const std::string root = TempDir("sam_pipe_sweep");

  for (const SamModel* sam : {unpartitioned.get(), partitioned.get()}) {
    const std::string label =
        sam == partitioned.get() ? "partitioned" : "unpartitioned";
    std::filesystem::remove_all(root + "/golden");
    auto golden_run =
        RunPipeline(*sam, root + "/golden", root + "/gwork", false);
    ASSERT_TRUE(golden_run.ok())
        << label << ": " << golden_run.status().ToString();
    const auto golden = ReadTree(root + "/golden");
    const uint64_t steps = golden_run.ValueOrDie().steps_total;
    ASSERT_GT(steps, 2u) << label;

    for (uint64_t s = 1; s < steps; ++s) {
      const std::string out = root + "/out";
      const std::string work = root + "/work";
      const std::string at = label + " stop=" + std::to_string(s);
      std::filesystem::remove_all(out);

      auto part = RunPipeline(*sam, out, work, /*resume=*/false, s);
      ASSERT_TRUE(part.ok()) << at << ": " << part.status().ToString();
      ASSERT_FALSE(part.ValueOrDie().completed) << at;
      EXPECT_EQ(part.ValueOrDie().next_step, s) << at;
      EXPECT_FALSE(std::filesystem::exists(out)) << at;

      auto rest = RunPipeline(*sam, out, work, /*resume=*/true);
      ASSERT_TRUE(rest.ok()) << at << ": " << rest.status().ToString();
      ASSERT_TRUE(rest.ValueOrDie().completed) << at;
      EXPECT_FALSE(rest.ValueOrDie().resumed_from.empty()) << at;
      if (sam->options().memory_cap_bytes > 0) {
        EXPECT_LE(rest.ValueOrDie().peak_reserved,
                  sam->options().memory_cap_bytes)
            << at;
      }
      EXPECT_EQ(ReadTree(out), golden) << at;
    }
  }
}

TEST(GenerationPipelineTest, SurvivesAnInterruptionAtEverySingleStep) {
  // Harder than the sweep above: ONE run interrupted after every step, i.e.
  // `steps_total` separate process lifetimes, each resuming the previous.
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_chainstop");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const uint64_t steps = golden_run.ValueOrDie().steps_total;

  const std::string out = root + "/out";
  const std::string work = root + "/work";
  bool completed = false;
  for (uint64_t i = 0; i <= steps + 1 && !completed; ++i) {
    auto r = RunPipeline(*sam, out, work, /*resume=*/i > 0,
                         /*stop_after_steps=*/1);
    ASSERT_TRUE(r.ok()) << "leg " << i << ": " << r.status().ToString();
    completed = r.ValueOrDie().completed;
  }
  ASSERT_TRUE(completed);
  EXPECT_EQ(ReadTree(out), ReadTree(root + "/golden"));
}

TEST(GenerationPipelineTest, ResumeRejectsFingerprintMismatch) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_fpr");

  auto part =
      RunPipeline(*sam, root + "/out", root + "/work", false, /*stop=*/2);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  ASSERT_FALSE(part.ValueOrDie().completed);

  // A different generation seed is a different configuration fingerprint.
  SamOptions other_options;
  other_options.generation_seed = 1000;
  const auto other = MakeChainModel(db, other_options);
  ASSERT_NE(sam->options().generation_seed, other->options().generation_seed);

  auto r = RunPipeline(*other, root + "/out", root + "/work", /*resume=*/true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("fingerprint"), std::string::npos)
      << r.status().ToString();
}

TEST(GenerationPipelineTest, ResumeWithoutCheckpointIsNotFound) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_nockpt");
  std::filesystem::create_directories(root + "/work");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", /*resume=*/true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << r.status().ToString();
}

TEST(GenerationPipelineTest, StopFlagCheckpointsThenResumeCompletes) {
  const Database db = MakeChainDatabase();
  const auto sam = MakeChainModel(db, SamOptions{});
  const std::string root = TempDir("sam_pipe_stopflag");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();

  // Pre-set flag: the pipeline must stop before the first step (the SIGINT
  // arrived before the run got going) and leave a resumable checkpoint.
  std::atomic<bool> stop{true};
  auto r = RunPipeline(*sam, root + "/out", root + "/work", false, 0, &stop);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().completed);
  EXPECT_EQ(r.ValueOrDie().steps_executed, 0u);

  stop.store(false);
  auto rest = RunPipeline(*sam, root + "/out", root + "/work", true, 0, &stop);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_TRUE(rest.ValueOrDie().completed);
  EXPECT_EQ(ReadTree(root + "/out"), ReadTree(root + "/golden"));
}

TEST(GenerationPipelineTest, MemoryCapBoundsPeakAndSpillsHarder) {
  const Database db = MakeChainDatabase();

  // Generous cap: single partition.
  SamOptions loose;
  loose.foj_samples = 8192;
  const auto sam_loose = MakeChainModel(db, loose);

  // 4 MiB cap with k=8192 forces partition fan-out > 1 (the per-partition
  // budget floors at 1 MiB), i.e. the pipeline spills harder instead of
  // growing.
  SamOptions tight = loose;
  tight.memory_cap_bytes = 4ll << 20;
  const auto sam_tight = MakeChainModel(db, tight);

  const std::string root = TempDir("sam_pipe_cap");
  auto rl = RunPipeline(*sam_loose, root + "/out_loose", root + "/wl", false);
  ASSERT_TRUE(rl.ok()) << rl.status().ToString();
  auto rt = RunPipeline(*sam_tight, root + "/out_tight", root + "/wt", false);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();

  // The cap property: peak accounted bytes never exceed the budget.
  EXPECT_LE(rt.ValueOrDie().peak_reserved, tight.memory_cap_bytes);
  // Tighter cap -> more (partitioned) spill traffic, same published sizes.
  EXPECT_GT(rt.ValueOrDie().steps_total, rl.ValueOrDie().steps_total);

  for (const char* out : {"/out_loose", "/out_tight"}) {
    auto gen = LoadDatabase(root + out);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ(gen.ValueOrDie().FindTable("A")->num_rows(), 2u) << out;
    EXPECT_EQ(gen.ValueOrDie().FindTable("B")->num_rows(), 3u) << out;
    EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok()) << out;
  }
}

TEST(GenerationPipelineTest, PartitionedRunResumesByteIdentical) {
  const Database db = MakeChainDatabase();
  SamOptions tight;
  tight.foj_samples = 8192;
  tight.memory_cap_bytes = 4ll << 20;
  const auto sam = MakeChainModel(db, tight);
  const std::string root = TempDir("sam_pipe_cap_resume");

  auto golden_run = RunPipeline(*sam, root + "/golden", root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const uint64_t steps = golden_run.ValueOrDie().steps_total;

  // Interrupt mid-merge (past sampling, inside the partitioned steps).
  const uint64_t stop_at = steps / 2;
  auto part = RunPipeline(*sam, root + "/out", root + "/work", false, stop_at);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  ASSERT_FALSE(part.ValueOrDie().completed);
  auto rest = RunPipeline(*sam, root + "/out", root + "/work", true);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(ReadTree(root + "/out"), ReadTree(root + "/golden"));
}

TEST(GenerationPipelineTest, TooTightCapFailsCleanlyNotOom) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  options.memory_cap_bytes = 512;  // Below any per-relation floor.
  const auto sam = MakeChainModel(db, options);
  const std::string root = TempDir("sam_pipe_tiny");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("memory cap exceeded"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(root + "/out"));
}

TEST(GenerationPipelineTest, ViewAblationPathIsRejected) {
  const Database db = MakeChainDatabase();
  SamOptions options;
  options.use_group_and_merge = false;
  const auto sam = MakeChainModel(db, options);
  const std::string root = TempDir("sam_pipe_views");

  auto r = RunPipeline(*sam, root + "/out", root + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented)
      << r.status().ToString();
}

TEST(GenerationPipelineTest, SingleRelationResumeSweepIsByteIdentical) {
  Database db = MakeCensusLike(600, 71);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 60;
  wopts.max_filters = 2;
  wopts.seed = 5;
  Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  SamOptions options;
  options.generation_batch = 200;  // 600 rows -> 3 sample steps.
  auto sam = SamModel::Create(db, train, hints, 600, options);
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  sam.ValueOrDie()->model()->SyncSamplerWeights();

  const std::string root = TempDir("sam_pipe_single");
  auto golden_run = RunPipeline(*sam.ValueOrDie(), root + "/golden",
                                root + "/gwork", false);
  ASSERT_TRUE(golden_run.ok()) << golden_run.status().ToString();
  const auto golden = ReadTree(root + "/golden");
  const uint64_t steps = golden_run.ValueOrDie().steps_total;
  ASSERT_GE(steps, 5u);  // 3 sample + assemble + publish.

  auto gen = LoadDatabase(root + "/golden");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen.ValueOrDie().FindTable("census")->num_rows(), 600u);

  for (uint64_t s = 1; s < steps; ++s) {
    std::filesystem::remove_all(root + "/out");
    auto part =
        RunPipeline(*sam.ValueOrDie(), root + "/out", root + "/work", false, s);
    ASSERT_TRUE(part.ok()) << "stop=" << s << ": " << part.status().ToString();
    ASSERT_FALSE(part.ValueOrDie().completed) << "stop=" << s;
    auto rest =
        RunPipeline(*sam.ValueOrDie(), root + "/out", root + "/work", true);
    ASSERT_TRUE(rest.ok()) << "stop=" << s << ": " << rest.status().ToString();
    EXPECT_EQ(ReadTree(root + "/out"), golden) << "stop=" << s;
  }
}

// ---------------------------------------------------------------------------
// Fault-injection sweep: the artifact seam is global, so every spill /
// checkpoint / publish write in the run sees the configured fault.
// ---------------------------------------------------------------------------

class GenerationPipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeChainDatabase();
    sam_ = MakeChainModel(db_, SamOptions{});
    // Unique per test: ctest runs each case as its own process, potentially
    // concurrently, so a shared fixture directory would be clobbered.
    const std::string dir =
        std::string("sam_pipe_fault_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    root_ = TempDir(dir.c_str());
    auto golden =
        RunPipeline(*sam_, root_ + "/golden", root_ + "/gwork", false);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  }
  void TearDown() override {
    ClearArtifactFaultInjectionForTest();
    obs::EnableMetrics(false);
  }

  /// Runs fresh under the configured fault, expects failure with `code`,
  /// clears the fault and proves a clean re-run still lands the golden bytes.
  void ExpectFailThenRecover(const ArtifactFaultInjection& f, StatusCode code) {
    SetArtifactFaultInjectionForTest(f);
    auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code) << r.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(root_ + "/out"));
    ClearArtifactFaultInjectionForTest();

    auto rerun = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
    std::filesystem::remove_all(root_ + "/out");
    std::filesystem::remove_all(root_ + "/work");
  }

  Database db_;
  std::unique_ptr<SamModel> sam_;
  std::string root_;
};

TEST_F(GenerationPipelineFaultTest, TransientWriteFailuresAreRetriedToGolden) {
  obs::EnableMetrics(true);
  obs::Counter* retries =
      obs::MetricsRegistry::Global().GetCounter("sam.artifact.retries_total");
  const uint64_t before = retries->Value();

  ArtifactFaultInjection f;
  f.transient_failures = 2;  // First commit hiccups twice, then succeeds.
  SetArtifactFaultInjectionForTest(f);
  auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ClearArtifactFaultInjectionForTest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().completed);
  EXPECT_EQ(retries->Value(), before + 2);
  EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
}

TEST_F(GenerationPipelineFaultTest, HardWriteCrashFailsCleanThenRecovers) {
  ArtifactFaultInjection f;
  f.fail_write_at_byte = 10;  // Crash 10 bytes into every spill write.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, EnospcFailsCleanWithNoStagedFiles) {
  ArtifactFaultInjection f;
  f.enospc = true;
  SetArtifactFaultInjectionForTest(f);
  auto r = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("No space left"), std::string::npos)
      << r.status().ToString();
  // A full disk is a reported error, not a crash: no staged temp files leak.
  EXPECT_FALSE(HasTmpFiles(root_ + "/work"));
  EXPECT_FALSE(std::filesystem::exists(root_ + "/out"));
  ClearArtifactFaultInjectionForTest();

  auto rerun = RunPipeline(*sam_, root_ + "/out", root_ + "/work", false);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(ReadTree(root_ + "/out"), ReadTree(root_ + "/golden"));
}

TEST_F(GenerationPipelineFaultTest, TornRenameFailsCleanThenRecovers) {
  ArtifactFaultInjection f;
  f.torn_rename = true;  // Crash after fsync, before the rename lands.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, SilentTruncationIsDetectedOnReadBack) {
  // truncate_on_close "succeeds" while tearing every file; the pipeline must
  // catch the corruption when the chunk is read back, never decode from it.
  ArtifactFaultInjection f;
  f.truncate_on_close = true;
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

TEST_F(GenerationPipelineFaultTest, SilentBitRotIsDetectedOnReadBack) {
  ArtifactFaultInjection f;
  f.bit_flip_at_byte = 40;  // Payload corruption after a successful commit.
  ExpectFailThenRecover(f, StatusCode::kIOError);
}

}  // namespace
}  // namespace sam
