// Workload-evaluation throughput of the execution engine: the hot path every
// fidelity/recovery experiment (Tables 1-6) funnels through. Times repeated
// cardinality evaluation of a labelled workload three ways — per-query
// Cardinality, compiled-query evaluation with reused scratch buffers, and the
// batched ParallelCardinality API — and verifies all three agree bit-for-bit.
//
// Flags: --scale=small|paper --seed=N --repeats=N --threads=N

#include <cstdio>

#include "bench_common.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/compiled_query.h"

namespace sam::bench {
namespace {

struct EvalStats {
  double seconds = 0;
  double qps = 0;
  int64_t checksum = 0;
};

EvalStats Finish(const Stopwatch& watch, const Workload& w, int repeats,
                 int64_t checksum) {
  EvalStats s;
  s.seconds = watch.ElapsedSeconds();
  s.qps = static_cast<double>(w.size()) * repeats / s.seconds;
  s.checksum = checksum;
  return s;
}

EvalStats TimeSequential(const Executor& exec, const Workload& w, int repeats) {
  Stopwatch watch;
  int64_t checksum = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& q : w) {
      auto card = exec.Cardinality(q);
      SAM_CHECK(card.ok()) << card.status().ToString();
      checksum ^= card.ValueOrDie();
    }
  }
  return Finish(watch, w, repeats, checksum);
}

EvalStats TimeCompiled(const Executor& exec, const Database& db,
                       const Workload& w, int repeats) {
  // Compile once, evaluate `repeats` times with reused scratch buffers: the
  // shape of a repeated-evaluation loop such as Q-Error over candidates.
  std::vector<engine::CompiledQuery> compiled;
  compiled.reserve(w.size());
  for (const auto& q : w) {
    auto cq = engine::CompiledQuery::Compile(db, exec.join_graph(), q);
    SAM_CHECK(cq.ok()) << cq.status().ToString();
    compiled.push_back(std::move(cq).ValueOrDie());
  }
  Stopwatch watch;
  int64_t checksum = 0;
  engine::EvalScratch scratch;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const auto& cq : compiled) {
      auto card = exec.Cardinality(cq, &scratch);
      SAM_CHECK(card.ok()) << card.status().ToString();
      checksum ^= card.ValueOrDie();
    }
  }
  return Finish(watch, w, repeats, checksum);
}

EvalStats TimeParallel(const Executor& exec, const Workload& w, int repeats,
                       size_t threads) {
  Stopwatch watch;
  int64_t checksum = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    auto cards = exec.ParallelCardinality(w, threads);
    SAM_CHECK(cards.ok()) << cards.status().ToString();
    for (int64_t c : cards.ValueOrDie()) checksum ^= c;
  }
  return Finish(watch, w, repeats, checksum);
}

void Report(const char* label, const EvalStats& s) {
  std::printf("%-44s %8.3fs  %10.0f queries/s  (checksum %lld)\n", label,
              s.seconds, s.qps, static_cast<long long>(s.checksum));
  std::fflush(stdout);
}

template <typename Setup>
void RunSuite(const char* name, const Setup& setup, int repeats,
              size_t threads) {
  EvalStats seq, comp, par;
  {
    BenchPhase phase(std::string(name) + "_sequential");
    seq = TimeSequential(*setup.exec, setup.train, repeats);
  }
  Report((std::string(name) + " sequential Cardinality").c_str(), seq);
  {
    BenchPhase phase(std::string(name) + "_compiled");
    comp = TimeCompiled(*setup.exec, *setup.db, setup.train, repeats);
  }
  Report((std::string(name) + " compiled + reused scratch").c_str(), comp);
  {
    BenchPhase phase(std::string(name) + "_parallel");
    par = TimeParallel(*setup.exec, setup.train, repeats, threads);
  }
  Report((std::string(name) + " ParallelCardinality").c_str(), par);
  SAM_CHECK(seq.checksum == comp.checksum && seq.checksum == par.checksum)
      << "checksum mismatch: sequential/compiled/parallel disagree";
}

}  // namespace
}  // namespace sam::bench

int main(int argc, char** argv) {
  using namespace sam::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  InitObservability(config);
  const int repeats = config.repeats;
  const size_t threads = config.threads;
  const DatasetSizes sizes = SizesFor(config);

  {
    auto setup = SetupCensus(config, sizes.train_queries_single);
    SAM_CHECK(setup.ok()) << setup.status().ToString();
    std::printf("Census: %zu rows, %zu queries, %d repeats\n",
                setup.ValueOrDie().db->FindTable("census")->num_rows(),
                setup.ValueOrDie().train.size(), repeats);
    RunSuite("census", setup.ValueOrDie(), repeats, threads);
  }
  {
    auto setup = SetupImdb(config, sizes.train_queries_multi / 2);
    SAM_CHECK(setup.ok()) << setup.status().ToString();
    std::printf("IMDB-like: %zu titles, %zu queries, %d repeats\n",
                setup.ValueOrDie().db->FindTable("title")->num_rows(),
                setup.ValueOrDie().train.size(), repeats);
    RunSuite("imdb", setup.ValueOrDie(), repeats, threads);
  }
  FinishObservability(config);
  return 0;
}
