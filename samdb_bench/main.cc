// samdb_bench — the repository's end-to-end benchmark harness.
//
//   samdb_bench --workload=census_train|imdb_generate --seed=N
//               --seconds=S --trace=0|1 --work-dir=DIR [--trace-out=FILE]
//
// Every workload runs the whole product path in process: seeded dataset and
// labelled workloads (set-up), DPS training, in-RAM generation (Alg 1, or
// SampleFoj + GenerateFromFoj) with SaveDatabaseAtomic, out-of-core
// generation, fidelity evaluation, a batched estimation sweep, and a
// closed-loop session against a self-hosted SamServer with one generate job.
// The sizes decide which layer dominates (README.md). Output is one JSON line
// on stdout; run.py turns it (plus the trace, with --trace=1) into the
// benchmark result.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "ar/batched_estimator.h"
#include "bench.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "linalg/kernels.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
#include "sam/generation_pipeline.h"
#include "storage/schema_io.h"
#include "workload/generator.h"

namespace samdb_bench {
namespace {

namespace fs = std::filesystem;
using sam::bench::BenchPhase;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else if (key == "--work-dir") {
      args->work_dir = val;
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return !args->work_dir.empty() && args->seconds > 0;
}

// Why each workload exists is in README.md.
bool SpecFor(const std::string& name, WorkloadSpec* s) {
  s->name = name;
  if (name == "census_train") {
    // Training dominates; Group-and-Merge, spill joins and FOJ do no work.
    s->rows = 20000;
    s->train_queries = 2000;
    s->test_queries = 500;
    s->epochs = 2;
    s->memory_cap_mb = 64;
    s->estimate_paths = 100;
  } else if (name == "imdb_generate") {
    // Generation dominates: FOJ sampling, Group-and-Merge in RAM and spilled.
    s->multi_relation = true;
    s->rows = 6000;
    s->train_queries = 800;
    s->test_queries = 1600;
    s->epochs = 2;
    s->foj_samples = 30000;
    s->memory_cap_mb = 16;
    s->estimate_paths = 100;
  } else {
    return false;
  }
  s->serve_seconds = 0.75;
  return true;
}

// The seeds, model shape and batch size of the experiment harnesses, at
// the workload's epochs, FOJ sample count and memory cap.
sam::SamOptions OptionsFor(const WorkloadSpec& spec, uint64_t seed) {
  sam::bench::BenchConfig config;
  config.seed = seed;
  config.epochs_override = spec.epochs;
  sam::SamOptions o = sam::bench::DefaultSamOptions(config);
  o.foj_samples = spec.multi_relation ? spec.foj_samples : 1;
  o.memory_cap_bytes = spec.memory_cap_mb << 20;
  return o;
}

sam::Result<Inputs> BuildInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.hints = spec.multi_relation ? sam::bench::ImdbHints()
                                 : sam::bench::CensusHints();
  in.db = std::make_unique<sam::Database>(
      spec.multi_relation ? sam::MakeImdbLike(spec.rows, seed * 47 + 5)
                          : sam::MakeCensusLike(spec.rows, seed * 31 + 1));
  SAM_ASSIGN_OR_RETURN(in.exec, sam::Executor::Create(in.db.get()));
  if (spec.multi_relation) {
    sam::MultiRelationWorkloadOptions w;
    w.num_queries = spec.train_queries;
    w.seed = seed * 53 + 6;
    SAM_ASSIGN_OR_RETURN(in.train, sam::GenerateMultiRelationWorkload(
                                       *in.db, *in.exec, w));
    w.num_queries = spec.test_queries;
    w.seed = seed * 59 + 7;
    SAM_ASSIGN_OR_RETURN(sam::Workload test, sam::GenerateMultiRelationWorkload(
                                                 *in.db, *in.exec, w));
    in.test = sam::RemoveDuplicateQueries(in.train, test);
    in.foj_size = in.exec->FullOuterJoinSize();
  } else {
    sam::SingleRelationWorkloadOptions w;
    w.num_queries = spec.train_queries;
    w.seed = seed * 37 + 2;
    SAM_ASSIGN_OR_RETURN(in.train, sam::GenerateSingleRelationWorkload(
                                       *in.db, "census", *in.exec, w));
    w.num_queries = spec.test_queries;
    w.seed = seed * 61 + 8;
    SAM_ASSIGN_OR_RETURN(sam::Workload test,
                         sam::GenerateSingleRelationWorkload(*in.db, "census",
                                                             *in.exec, w));
    in.test = sam::RemoveDuplicateQueries(in.train, test);
    in.foj_size = static_cast<int64_t>(spec.rows);
  }
  return in;
}

uint64_t WorkloadDigest(const sam::Workload& w) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (const sam::Query& q : w) {
    const std::string s = q.ToString();
    h = Fnv1a(s.data(), s.size(), h);
    h = Fnv1a(&q.cardinality, sizeof(q.cardinality), h);
  }
  return h;
}

// Repeats within a round of the two phases that take well under a second.
constexpr int kSetupRepeats = 5;
constexpr int kEvaluateRepeats = 5;
constexpr int kEstimateRepeats = 3;
constexpr size_t kEstimateQueries = 250;
// Fewest timed rounds of an untraced run, whatever `seconds` says.
constexpr int kMinRounds = 5;
// Untraced/traced round pairs of the traced run.
constexpr int kOverheadPairs = 3;

size_t HalfTheCores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency() / 2);
}

/// Integrity and the size guarantee: FKs resolve, PKs are unique, and every
/// generated relation has exactly the catalog's row count.
void CheckGenerated(const sam::Database& gen, const sam::Database& orig,
                    const std::string& label, Ledger* ledger) {
  ledger->Check(gen.ValidateIntegrity().ok(), label + ": ValidateIntegrity");
  bool sizes = gen.num_tables() == orig.num_tables();
  for (const sam::Table& t : orig.tables()) {
    const sam::Table* g = gen.FindTable(t.name());
    sizes = sizes && g != nullptr && g->num_rows() == t.num_rows();
  }
  ledger->Check(sizes, label + ": relation sizes equal the catalog's");
}

size_t TotalRows(const sam::Database& db) {
  size_t n = 0;
  for (const sam::Table& t : db.tables()) n += t.num_rows();
  return n;
}

/// How a run condenses a metric's per-round samples.
///
/// On a shared host a thread's speed swings both ways from round to round,
/// so the median is the steadiest figure of most phases. A phase that keeps
/// every hardware thread busy at once and waits for the slowest of them
/// (static shards, in-order commits, a job contending with the serve fleet)
/// is delayed whenever load from outside deschedules any one of them, and
/// never sped up by it; its fastest sample is the steadiest figure of its
/// cost (README.md gives the measurements). Only times use it.
enum class Reduce { kMedian, kFastest };

/// Per-round samples of the end-to-end metrics.
struct RoundSamples {
  struct Slot {
    std::vector<double> values;
    std::string unit;
    Reduce reduce = Reduce::kMedian;
  };
  std::map<std::string, Slot> values;
  double compute_s = 0;  ///< Wall time of every phase except serving.

  void Add(const std::string& name, double v, const std::string& unit,
           Reduce reduce = Reduce::kMedian) {
    Slot& slot = values[name];
    slot.values.push_back(v);
    slot.unit = unit;
    slot.reduce = reduce;
  }
  /// Adds a phase time that also counts towards `compute_s`.
  void AddPhase(const std::string& name, double seconds,
                Reduce reduce = Reduce::kMedian) {
    Add(name, seconds, "s", reduce);
    compute_s += seconds;
  }
  void Report(MetricSet* out) const {
    for (const auto& [name, slot] : values) {
      const std::vector<double>& v = slot.values;
      out->Set(name,
               slot.reduce == Reduce::kFastest
                   ? *std::min_element(v.begin(), v.end())
                   : Median(v),
               slot.unit);
    }
  }
  /// `{"name": [v, ...], ...}`: every round's value, for the record.
  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [name, slot] : values) {
      out += (out.size() > 1 ? ", \"" : "\"") + name + "\": [";
      for (size_t i = 0; i < slot.values.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "",
                      slot.values[i]);
        out += buf;
      }
      out += "]";
    }
    return out + "}";
  }
};

/// The closed-loop serve session with one generate job.
void RunServe(const WorkloadSpec& spec, const Inputs& in,
              std::shared_ptr<const sam::SamModel> sam, uint64_t seed,
              const std::string& work, RoundSamples* samples, MetricSet* layer,
              Ledger* ledger) {
  // Half the cores for the client fleet (and the server's executor pool):
  // the other half absorbs the dispatcher, the generate job and load from
  // outside the benchmark, which keeps latencies comparable run to run.
  const size_t clients = HalfTheCores();
  const std::string job_dir = work + "/serve_job";
  fs::remove_all(job_dir);
  auto session = [&] {
    BenchPhase span("serve");
    return RunServeSession(in, sam, clients, spec.serve_seconds,
                           spec.estimate_paths, seed, job_dir);
  }();
  ledger->Op(session.ok(), "serve session");
  if (!session.ok()) return;
  const ServeSession& s = session.ValueOrDie();
  for (const OpStats* op : {&s.exact, &s.model}) {
    ledger->AddOps(op->attempted,
                   op->failed + op->shed + op->timed_out + op->wrong);
    ledger->Check(op->wrong == 0, "serve answers equal the reference");
    ledger->Check(op->failed + op->shed + op->timed_out == 0,
                  "serve requests all succeed");
  }
  ledger->Check(s.job_done, "serve generate job finished");
  if (s.job_done) {
    auto job_db = sam::LoadDatabase(s.job_out);
    ledger->Op(job_db.ok(), "LoadDatabase(serve job output)");
    if (job_db.ok()) {
      CheckGenerated(job_db.ValueOrDie(), *in.db, "serve job output", ledger);
    }
  }
  const double ok_requests =
      static_cast<double>(s.exact.succeeded + s.model.succeeded);
  samples->Add("serve_generate_job_s", s.job_seconds, "s", Reduce::kFastest);
  // The fleet's throughput and latencies amplify outside load on the host
  // (closed-loop queueing) beyond any end-to-end bound; they are per-layer
  // numbers of the traced round, and per-round values in the record.
  samples->Add("serve_qps", ok_requests / s.seconds, "req/s");
  layer->Set("serve.qps", ok_requests / s.seconds, "req/s");
  for (auto [kind, op] : {std::pair{"exact", &s.exact}, {"model", &s.model}}) {
    for (int p : {50, 90, 99}) {
      const std::string name =
          std::string(kind) + "_p" + std::to_string(p) + "_ms";
      const double v = Percentile(op->latency_ms, p);
      samples->Add("serve_" + name, v, "ms");
      layer->Set("serve." + name, v, "ms");
    }
  }
  layer->Set("serve.batch_size_mean",
             static_cast<double>(s.dispatched) /
                 static_cast<double>(std::max<uint64_t>(1, s.batches)),
             "requests");
  layer->Set("serve.model_batch_size_mean",
             static_cast<double>(s.model.attempted) /
                 static_cast<double>(std::max<uint64_t>(1, s.model_batches)),
             "requests");
  layer->Set("serve.plan_cache_hit_ratio",
             static_cast<double>(s.cache_hits) /
                 static_cast<double>(
                     std::max<uint64_t>(1, s.cache_hits + s.cache_misses)),
             "ratio");
  layer->Set("serve.queue_depth_peak", s.queue_depth_peak, "requests");
  // The mix the session achieved, beside the hot share it derived from the
  // training workload (serve_load.cc): these explain the batch sizes and the
  // plan-cache hit ratio above.
  layer->Set("serve.hot_share_target", s.hot_share, "ratio");
  layer->Set("serve.hot_request_share",
             static_cast<double>(s.hot_attempted) /
                 static_cast<double>(std::max<uint64_t>(1, s.exact.attempted)),
             "ratio");
  layer->Set("serve.model_request_share",
             static_cast<double>(s.model.attempted) /
                 static_cast<double>(std::max<uint64_t>(1, s.dispatched)),
             "ratio");
  std::fprintf(stderr,
               "serve ops: exact attempted=%llu ok=%llu failed=%llu shed=%llu "
               "timed_out=%llu (p99 over %zu) | model attempted=%llu ok=%llu "
               "failed=%llu shed=%llu timed_out=%llu (p99 over %zu)\n",
               static_cast<unsigned long long>(s.exact.attempted),
               static_cast<unsigned long long>(s.exact.succeeded),
               static_cast<unsigned long long>(s.exact.failed),
               static_cast<unsigned long long>(s.exact.shed),
               static_cast<unsigned long long>(s.exact.timed_out),
               s.exact.latency_ms.size(),
               static_cast<unsigned long long>(s.model.attempted),
               static_cast<unsigned long long>(s.model.succeeded),
               static_cast<unsigned long long>(s.model.failed),
               static_cast<unsigned long long>(s.model.shed),
               static_cast<unsigned long long>(s.model.timed_out),
               s.model.latency_ms.size());
}

/// One round of the product path after set-up: train, generate in RAM and
/// out of core, evaluate both outputs, sweep the estimator, then serve.
/// Deterministic outputs go to the ledger as digests, so every round must
/// reproduce the first one bit for bit. Returns the trained model (null on
/// failure).
std::shared_ptr<const sam::SamModel> RunRound(const WorkloadSpec& spec,
                                              const Inputs& in, uint64_t seed,
                                              const std::string& work,
                                              RoundSamples* samples,
                                              MetricSet* layer,
                                              Ledger* ledger) {
  sam::SamOptions options = OptionsFor(spec, seed);

  // ---- Train (DPS). Step timestamps come from the step hook.
  std::vector<double> step_starts;
  options.training.step_hook = [&step_starts](size_t, size_t) {
    step_starts.push_back(Now());
  };
  double t0 = Now();
  auto trained = [&] {
    BenchPhase span("train");
    return sam::SamModel::Train(*in.db, in.train, in.hints, in.foj_size,
                                options);
  }();
  step_starts.push_back(Now());
  const double train_s = Now() - t0;
  samples->AddPhase("train_s", train_s);
  ledger->Op(trained.ok(), "TrainDps");
  if (!trained.ok()) return nullptr;
  std::shared_ptr<const sam::SamModel> sam(trained.MoveValue().release());
  std::vector<double> step_ms;
  for (size_t i = 1; i < step_starts.size(); ++i) {
    step_ms.push_back((step_starts[i] - step_starts[i - 1]) * 1e3);
  }
  size_t trained_queries = 0;
  for (const sam::DpsEpochStats& s : sam->training_stats()) {
    trained_queries += s.queries_processed;
  }
  uint64_t params = Fnv1a(nullptr, 0);
  for (const sam::ad::Tensor& p : sam->model()->params()) {
    params = Fnv1a(p.value().data(), p.value().size() * sizeof(double), params);
  }
  ledger->Digest("model_params", params);
  const double final_loss = sam->training_stats().empty()
                                ? 0
                                : sam->training_stats().back().mean_loss;
  layer->Set("dps.steps", static_cast<double>(step_ms.size()), "count");
  layer->Set("dps.step_ms_p50", Percentile(step_ms, 50), "ms");
  layer->Set("dps.step_ms_p99", Percentile(step_ms, 99), "ms");
  layer->Set("dps.queries_per_s",
             static_cast<double>(trained_queries) / train_s,
             "queries/s");
  layer->Set("dps.final_loss", final_loss, "loss");

  // ---- In-RAM generation + SaveDatabaseAtomic. Multi-relation runs the
  // two public halves of Alg 2 so sampling and IPW/scaling/Group-and-Merge
  // are timed apart.
  const std::string inram_dir = work + "/inram";
  sam::Result<sam::Database> generated = sam::Status::Internal("not run");
  t0 = Now();
  double p0 = t0;
  double sample_s = 0, from_foj_s = 0;
  {
    BenchPhase span("generate");
    if (spec.multi_relation) {
      sam::Rng rng(options.generation_seed);
      sam::SamModel::FojSample foj;
      {
        BenchPhase s("sample_foj");
        foj = sam->SampleFoj(options.foj_samples, &rng);
      }
      sample_s = Now() - p0;
      p0 = Now();
      BenchPhase s("generate_from_foj");
      generated = sam->GenerateFromFoj(foj, &rng);
      from_foj_s = Now() - p0;
    } else {
      generated = sam->Generate();
      sample_s = Now() - p0;
    }
  }
  ledger->Op(generated.ok(), "in-RAM generation");
  if (!generated.ok()) return nullptr;
  p0 = Now();
  {
    BenchPhase s("save_db");
    ledger->Op(sam::SaveDatabaseAtomic(generated.ValueOrDie(), inram_dir).ok(),
               "SaveDatabaseAtomic");
  }
  const double save_s = Now() - p0;
  samples->AddPhase("generate_s", Now() - t0);
  const sam::Database& gen = generated.ValueOrDie();
  CheckGenerated(gen, *in.db, "in-RAM output", ledger);
  const uint64_t inram_digest = DirectoryDigest(inram_dir);
  ledger->Digest("inram_db", inram_digest);
  const double db_mb = static_cast<double>(DirectoryBytes(inram_dir)) / 1e6;
  layer->Set("sam.sample_foj_s", sample_s, "s");
  layer->Set("sam.foj_samples_per_s",
             static_cast<double>(spec.multi_relation ? options.foj_samples
                                                     : spec.rows) /
                 sample_s,
             "samples/s");
  layer->Set("sam.generate_from_foj_s", from_foj_s, "s");
  layer->Set("sam.rows_generated", static_cast<double>(TotalRows(gen)), "rows");
  layer->Set("storage.save_db_s", save_s, "s");
  layer->Set("storage.save_db_mb_per_s", db_mb / save_s, "MB/s");

  // ---- Out-of-core generation at the workload's memory cap.
  const std::string ooc_dir = work + "/ooc";
  sam::GenerationPipelineOptions popts;
  popts.out_dir = ooc_dir;
  popts.work_dir = ooc_dir + ".work";
  fs::remove_all(popts.out_dir);
  fs::remove_all(popts.work_dir);
  t0 = Now();
  auto run = [&] {
    BenchPhase span("generate_ooc");
    sam::GenerationPipeline pipeline(sam.get(), popts);
    return pipeline.Run();
  }();
  samples->AddPhase("generate_ooc_s", Now() - t0, Reduce::kFastest);
  ledger->Op(run.ok() && run.ValueOrDie().completed, "GenerationPipeline::Run");
  auto ooc = sam::LoadDatabase(ooc_dir);
  ledger->Op(ooc.ok(), "LoadDatabase(out-of-core output)");
  if (!run.ok() || !ooc.ok()) return nullptr;
  const sam::GenerationRunSummary& summary = run.ValueOrDie();
  CheckGenerated(ooc.ValueOrDie(), *in.db, "out-of-core output", ledger);
  ledger->Digest("ooc_db", DirectoryDigest(ooc_dir));
  layer->Set("pipeline.steps", static_cast<double>(summary.steps_executed),
             "count");
  layer->Set("pipeline.spill_bytes_per_output_byte",
             static_cast<double>(summary.spill_bytes) /
                 static_cast<double>(DirectoryBytes(ooc_dir)),
             "ratio");
  layer->Set("pipeline.peak_reserved_mb",
             static_cast<double>(summary.peak_reserved) / (1 << 20), "MiB");

  // ---- Evaluate: q-error of the training (A1) and test (A2) workloads
  // re-executed on the in-RAM output, `kEvaluateRepeats` times (one pass is
  // tens of milliseconds); A1 on the out-of-core output too, untimed.
  sam::MetricSummary a1, a2, a1_ooc;
  std::vector<double> evaluate_s;
  for (int rep = 0; rep < kEvaluateRepeats; ++rep) {
    t0 = Now();
    BenchPhase span("evaluate");
    auto exec = sam::Executor::Create(&gen);
    ledger->Op(exec.ok(), "Executor::Create(generated)");
    if (!exec.ok()) return nullptr;
    auto train_q = sam::QErrorOnDatabase(*exec.ValueOrDie(), in.train);
    auto test_q = sam::QErrorOnDatabase(*exec.ValueOrDie(), in.test);
    ledger->Op(train_q.ok() && test_q.ok(), "QErrorOnDatabase");
    if (!train_q.ok() || !test_q.ok()) return nullptr;
    a1 = train_q.ValueOrDie();
    a2 = test_q.ValueOrDie();
    evaluate_s.push_back(Now() - t0);
    samples->AddPhase("evaluate_s", evaluate_s.back(), Reduce::kFastest);
  }
  {
    auto exec = sam::Executor::Create(&ooc.ValueOrDie());
    auto q = exec.ok() ? sam::QErrorOnDatabase(*exec.ValueOrDie(), in.train)
                       : sam::Result<sam::MetricSummary>(exec.status());
    ledger->Op(q.ok(), "QErrorOnDatabase(out-of-core output)");
    if (q.ok()) a1_ooc = q.ValueOrDie();
  }
  for (auto [name, s] : {std::pair{"train_qerror", &a1}, {"test_qerror", &a2},
                         {"ooc_train_qerror", &a1_ooc}}) {
    samples->Add(std::string(name) + "_p50", s->median, "qerror");
    samples->Add(std::string(name) + "_p90", s->p90, "qerror");
    ledger->Digest(std::string(name) + "_p90",
                   Fnv1a(&s->p90, sizeof(s->p90)));
  }
  layer->Set("engine.eval_qps",
             static_cast<double>(in.train.size() + in.test.size()) /
                 Median(evaluate_s),
             "queries/s");

  // ---- Batched estimation sweeps over (a prefix of) the test workload,
  // `kEstimateRepeats` times; a sample must be bit-identical to the
  // single-query ProgressiveEstimator.
  const sam::Workload sweep(
      in.test.begin(),
      in.test.begin() + std::min(kEstimateQueries, in.test.size()));
  sam::ThreadPool pool(HalfTheCores());
  sam::BatchedProgressiveEstimator estimator(sam->model());
  sam::Result<std::vector<double>> estimates = sam::Status::Internal("not run");
  for (int rep = 0; rep < kEstimateRepeats; ++rep) {
    t0 = Now();
    {
      BenchPhase span("estimate");
      estimates = estimator.EstimateBatch(sweep, spec.estimate_paths, &pool);
    }
    const double estimate_s = Now() - t0;
    samples->AddPhase("estimate_s", estimate_s);
    samples->Add("estimate_qps", static_cast<double>(sweep.size()) / estimate_s,
                 "queries/s");
    ledger->Op(estimates.ok(), "BatchedProgressiveEstimator::EstimateBatch");
    if (!estimates.ok()) return nullptr;
  }
  const sam::ProgressiveEstimator single(sam->model(), spec.estimate_paths);
  bool identical = estimates.ValueOrDie().size() == sweep.size();
  for (size_t i = 0; identical && i < std::min<size_t>(8, sweep.size()); ++i) {
    auto e = single.EstimateCardinality(sweep[i]);
    identical = e.ok() && e.ValueOrDie() == estimates.ValueOrDie()[i];
  }
  ledger->Check(identical,
                "batched estimates bit-identical to ProgressiveEstimator");

  RunServe(spec, in, sam, seed, work, samples, layer, ledger);
  return sam;
}

/// Runs `rounds` rounds, then more while another round of the mean length
/// so far still ends before `deadline` (0: none). Returns the last model
/// (null on failure).
std::shared_ptr<const sam::SamModel> RunRounds(const WorkloadSpec& spec,
                                               const Inputs& in, uint64_t seed,
                                               const std::string& work,
                                               int rounds, double deadline,
                                               RoundSamples* samples,
                                               MetricSet* layer,
                                               Ledger* ledger) {
  std::shared_ptr<const sam::SamModel> sam;
  const double start = Now();
  for (int r = 0;
       r < rounds || (deadline > 0 && Now() + (Now() - start) / r < deadline);
       ++r) {
    sam = RunRound(spec, in, seed, work, samples, layer, ledger);
    if (sam == nullptr) return nullptr;
    // Hand freed heap back to the OS, so peak RSS measures one round's
    // working set, not fragmentation accumulated over earlier rounds.
    malloc_trim(0);
  }
  return sam;
}

/// Multi-relation models: SampleFoj + GenerateFromFoj (the in-RAM output of
/// the rounds) must reproduce Generate() byte for byte. Untimed, untraced.
void CheckGenerateMatchesRounds(const WorkloadSpec& spec,
                                const sam::SamModel& sam,
                                const std::string& work, Ledger* ledger) {
  if (!spec.multi_relation) return;
  auto reference = sam.Generate();
  ledger->Op(reference.ok(), "Generate()");
  if (!reference.ok()) return;
  const std::string ref_dir = work + "/generate_ref";
  ledger->Op(sam::SaveDatabaseAtomic(reference.ValueOrDie(), ref_dir).ok(),
             "SaveDatabaseAtomic(Generate())");
  ledger->Check(DirectoryDigest(ref_dir) == DirectoryDigest(work + "/inram"),
                "SampleFoj+GenerateFromFoj bytes equal Generate()");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !SpecFor(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: samdb_bench --workload=census_train|imdb_generate "
                 "--seed=N --seconds=S --trace=0|1 --work-dir=DIR "
                 "[--trace-out=FILE]\n");
    return 2;
  }
  const std::string work = args.work_dir + "/" + spec.name;
  fs::remove_all(work);
  fs::create_directories(work);
  MetricSet e2e, layer;
  Ledger ledger;

  // ---- Set-up: dataset, executor, labelled workloads. Repeated; median.
  Inputs in;
  std::vector<double> setup_t;
  uint64_t input_digest = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = Now();
    auto built = BuildInputs(spec, args.seed);
    setup_t.push_back(Now() - t0);
    ledger.Op(built.ok(), "set-up");
    if (!built.ok()) break;
    in = built.MoveValue();
    const uint64_t d = WorkloadDigest(in.train) ^ WorkloadDigest(in.test) * 31;
    ledger.Check(r == 0 || d == input_digest, "set-up is deterministic");
    input_digest = d;
  }
  ledger.Digest("inputs", input_digest);
  e2e.Set("setup_s", Median(setup_t), "s");

  if (ledger.correct()) {
    // Labels re-executed on the original DB equal the generator's labels.
    const double t0 = Now();
    auto labels = in.exec->ParallelCardinality(in.train);
    const double label_s = Now() - t0;
    bool equal = labels.ok() && labels.ValueOrDie().size() == in.train.size();
    for (size_t i = 0; equal && i < in.train.size(); ++i) {
      equal = labels.ValueOrDie()[i] == in.train[i].cardinality;
    }
    ledger.Check(equal, "re-executed labels equal the generator's labels");
    layer.Set("engine.label_qps",
              static_cast<double>(in.train.size()) / label_s, "queries/s");
  }

  std::string rounds_json = "{}";
  std::string model_json = "{}";
  int traced_rounds = 0;
  std::shared_ptr<const sam::SamModel> sam;
  if (ledger.correct() && !args.trace) {
    // One untimed warm-up round, so every timed round starts from the same
    // warm state; then rounds for `seconds`.
    RoundSamples warm_up, samples;
    RunRounds(spec, in, args.seed, work, 1, 0, &warm_up, &layer, &ledger);
    if (ledger.correct()) {
      sam = RunRounds(spec, in, args.seed, work, kMinRounds,
                      Now() + args.seconds, &samples, &layer, &ledger);
    }
    samples.Report(&e2e);
    rounds_json = samples.ToJson();
  } else if (ledger.correct()) {
    // Traced run: one warm-up round, then pairs of an untraced and a traced
    // round, in alternating order so drift in host speed cancels. The
    // tracing overhead is the median over pairs of the traced round's
    // compute time over its partner's, minus one. Per-layer numbers come
    // from the traced rounds and the probes after them.
    MetricSet untraced_layer;
    RoundSamples warm_up;
    RunRounds(spec, in, args.seed, work, 1, 0, &warm_up, &untraced_layer,
              &ledger);
    std::vector<double> overhead;
    for (int pair = 0; pair < kOverheadPairs && ledger.correct(); ++pair) {
      RoundSamples plain, traced;
      for (bool tracing : {pair % 2 == 1, pair % 2 == 0}) {
        sam::obs::EnableTracing(tracing);
        auto m = RunRounds(spec, in, args.seed, work, 1, 0,
                           tracing ? &traced : &plain,
                           tracing ? &layer : &untraced_layer, &ledger);
        sam::obs::EnableTracing(false);
        if (tracing) sam = m;
      }
      traced_rounds++;
      overhead.push_back(traced.compute_s / plain.compute_s - 1);
    }
    layer.Set("obs.trace_overhead_frac", Median(overhead), "ratio");
    if (sam != nullptr) {
      const sam::SamOptions& options = sam->options();
      ProbeLinalg(options.generation_batch, options.model.hidden_sizes[0],
                  &layer);
      ProbeMade(*sam,
                options.training.batch_size * options.training.sample_paths,
                &layer);
      ProbeEstimator(*sam, in.test, spec.estimate_paths, &layer, &ledger);
      ProbePipelineSpeedup(*sam, work + "/speedup", &layer, &ledger);
    }
    if (!args.trace_out.empty()) {
      ledger.Op(
          sam::obs::Tracer::Global().WriteChromeTrace(args.trace_out).ok(),
          "WriteChromeTrace");
    }
  }
  if (sam != nullptr) {
    CheckGenerateMatchesRounds(spec, *sam, work, &ledger);
    model_json = "{\"columns\": " +
                 std::to_string(sam->schema().columns().size()) +
                 ", \"total_domain\": " +
                 std::to_string(sam->schema().total_domain()) +
                 ", \"parameters\": " +
                 std::to_string(sam->model()->num_parameters()) + "}";
  }
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  layer.Set("machine.effective_parallelism",
            MeasureEffectiveParallelism(
                std::max(1u, std::thread::hardware_concurrency())),
            "x");

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"machine\": {\"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"simd_backend\": \"%s\"}, "
      "\"violations\": %s, \"digests\": %s, \"model\": %s, \"rounds\": %s, "
      "\"traced_rounds\": %d, \"end_to_end\": %s, \"per_layer\": %s}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, ledger.correct() ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()),
      sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      sam::kernels::ActiveBackend() == sam::kernels::Backend::kAvx2 ? "avx2"
                                                                    : "scalar",
      ledger.ViolationsJson().c_str(), ledger.DigestsJson().c_str(),
      model_json.c_str(), rounds_json.c_str(), traced_rounds,
      e2e.ToJson().c_str(),
      layer.ToJson().c_str());
  fs::remove_all(work);
  return ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace samdb_bench

int main(int argc, char** argv) { return samdb_bench::Main(argc, argv); }
