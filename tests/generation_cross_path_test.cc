// The in-RAM generator (`SamModel::Generate`) and the out-of-core
// `GenerationPipeline` share one Group-and-Merge core. These tests pin what
// that sharing promises: the pipeline's published bytes (known answers), the
// same sizes, FK integrity and fidelity on both paths, identical key
// assignment at one partition, and the hoisted IPW plan against the
// reference `InverseProbabilityWeight`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "generation_fixtures.h"
#include "metrics/metrics.h"
#include "sam/group_and_merge.h"
#include "storage/schema_io.h"

namespace sam {
namespace {

using namespace testing_fixtures;

// ---------------------------------------------------------------------------
// Known answers: digests of the pipeline's published tree (CSVs and
// schema.txt) for seeded chain and imdb_like runs at one and at two
// partitions. A change to any Group-and-Merge order, the decode RNG streams
// or the CSV rendering moves them — and breaks resuming older checkpoints.
// ---------------------------------------------------------------------------

uint64_t PublishedDigest(const SamModel& sam, const std::string& name) {
  const std::string root = TempDir("sam_known_answer_" + name);
  auto r = RunPipeline(sam, root + "/out", root + "/work", /*resume=*/false);
  SAM_CHECK_OK(r.status());
  return TreeDigest(root + "/out");
}

TEST(GenerationKnownAnswerTest, ChainPipelineBytes) {
  const Database db = MakeChainDatabase();
  EXPECT_EQ(PublishedDigest(*MakeChainModel(db, SamOptions{}), "chain1"),
            0xb94662073bcfeaecull);
  EXPECT_EQ(PublishedDigest(*MakePartitionedChainModel(db), "chain2"),
            0x7087a1b4ca050537ull);
}

TEST(GenerationKnownAnswerTest, ImdbPipelineBytes) {
  const ImdbFixture imdb;
  SamOptions tight;
  tight.memory_cap_bytes = 3ll << 20;
  EXPECT_EQ(PublishedDigest(*imdb.Train(SamOptions{}), "imdb1"),
            0x6ac0e14667b14566ull);
  EXPECT_EQ(PublishedDigest(*imdb.Train(tight), "imdb2"),
            0x08eec5ffa8835d81ull);
}

// ---------------------------------------------------------------------------
// Cross-path fidelity: `Generate()` against the pipeline at a loose cap (one
// partition) and at a tight cap (two partitions, so pass 2 merges leftovers
// across partitions). Both paths draw the same FOJ sample from the same
// `generation_seed`; only the decode RNG streams and the row order differ.
// ---------------------------------------------------------------------------

double QErrorMedian(const Database& db, const Workload& workload) {
  auto exec = Executor::Create(&db).MoveValue();
  return QErrorOnDatabase(*exec, workload).MoveValue().median;
}

/// `loose` and `tight` hold the same parameters and differ only in
/// `memory_cap_bytes`.
void ExpectPathsAgree(const std::string& name, const SamModel& loose,
                      const SamModel& tight, const Workload& workload) {
  auto in_ram = loose.Generate();
  ASSERT_TRUE(in_ram.ok()) << name << ": " << in_ram.status().ToString();
  const std::string root = TempDir("sam_cross_path_" + name);
  auto one_run = RunPipeline(loose, root + "/one", root + "/w1", false);
  ASSERT_TRUE(one_run.ok()) << name << ": " << one_run.status().ToString();
  auto two_run = RunPipeline(tight, root + "/two", root + "/w2", false);
  ASSERT_TRUE(two_run.ok()) << name << ": " << two_run.status().ToString();
  const ModelSchema& schema = loose.schema();
  if (schema.multi_relation()) {
    // One more partition step per relation, at least.
    EXPECT_GE(two_run.ValueOrDie().steps_total,
              one_run.ValueOrDie().steps_total + loose.layouts().size())
        << name;
  }

  const Database& ram = in_ram.ValueOrDie();
  const Database one = LoadDatabase(root + "/one").MoveValue();
  const Database two = LoadDatabase(root + "/two").MoveValue();
  for (const auto& layout : loose.layouts()) {
    const std::string at = name + "." + layout.name;
    const int64_t target = schema.table_size(layout.name);
    const auto rows = [&](const Database& db) {
      return static_cast<int64_t>(db.FindTable(layout.name)->num_rows());
    };
    // The same sample and the same key assignment at one partition.
    EXPECT_EQ(rows(one), rows(ram)) << at;
    if (!layout.pk.empty()) {
      EXPECT_EQ(rows(ram), target) << at;
      EXPECT_EQ(rows(two), target) << at;
    } else {
      EXPECT_LE(std::llabs(rows(ram) - target), 1) << at;
      EXPECT_LE(std::llabs(rows(two) - rows(ram)), 1) << at;
    }
  }
  for (const Database* db : {&ram, &one, &two}) {
    EXPECT_TRUE(db->ValidateIntegrity().ok()) << name;
  }

  const double medians[] = {QErrorMedian(ram, workload),
                            QErrorMedian(one, workload),
                            QErrorMedian(two, workload)};
  const auto [lo, hi] = std::minmax_element(std::begin(medians),
                                            std::end(medians));
  EXPECT_LE(*hi / *lo, 1.25) << name << ": in-RAM " << medians[0]
                             << ", one partition " << medians[1]
                             << ", two partitions " << medians[2];
}

TEST(GenerationCrossPathTest, Chain) {
  const Database db = MakeChainDatabase();
  SamOptions loose;
  loose.foj_samples = 8192;
  loose.generation_batch = 2048;
  SamOptions tight = loose;
  tight.memory_cap_bytes = 4ll << 20;
  ExpectPathsAgree("chain", *MakeChainModel(db, loose),
                   *MakeChainModel(db, tight), ChainWorkload());
}

TEST(GenerationCrossPathTest, ImdbLike) {
  const ImdbFixture imdb;
  SamOptions tight;
  tight.memory_cap_bytes = 3ll << 20;
  ExpectPathsAgree("imdb", *imdb.Train(SamOptions{}), *imdb.Train(tight),
                   imdb.train);
}

TEST(GenerationCrossPathTest, CensusLike) {
  // One relation: Alg 1 on both paths, so the tight cap changes only buffer
  // sizes and the relation is never partitioned.
  Database db = MakeCensusLike(600, 71);
  auto exec = Executor::Create(&db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 60;
  wopts.max_filters = 2;
  wopts.seed = 5;
  const Workload train =
      GenerateSingleRelationWorkload(db, "census", *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  const auto make = [&](int64_t cap) {
    SamOptions options;
    options.generation_batch = 200;
    options.memory_cap_bytes = cap;
    options.model.hidden_sizes = {16, 16};
    options.training.epochs = 2;
    auto sam = SamModel::Train(db, train, hints, 600, options);
    SAM_CHECK_OK(sam.status());
    sam.ValueOrDie()->model()->SyncSamplerWeights();
    return sam.MoveValue();
  };
  ExpectPathsAgree("census", *make(256ll << 20), *make(1ll << 20), train);
}

// ---------------------------------------------------------------------------
// The hoisted IPW plan equals the reference weight bit for bit.
// ---------------------------------------------------------------------------

/// Every code uniform over its domain, indicators included, so absent
/// relations (indicator 0) and their skipped fanouts are exercised.
SamModel::FojSample RandomFoj(const ModelSchema& schema, size_t k, Rng* rng) {
  SamModel::FojSample foj;
  foj.count = k;
  foj.codes.assign(schema.num_columns(), std::vector<int32_t>(k));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const int64_t domain =
        static_cast<int64_t>(schema.columns()[c].domain_size);
    for (size_t s = 0; s < k; ++s) {
      foj.codes[c][s] = static_cast<int32_t>(rng->UniformInt(0, domain - 1));
    }
  }
  return foj;
}

void ExpectIpwPlanMatchesReference(const SamModel& sam) {
  const ModelSchema& schema = sam.schema();
  Rng rng(41);
  const SamModel::FojSample foj = RandomFoj(schema, 512, &rng);
  for (const auto& rel : schema.join_graph().TopologicalOrder()) {
    const IpwPlan plan(schema, rel);
    for (size_t s = 0; s < foj.count; ++s) {
      ASSERT_EQ(plan.Weight(foj.codes, s),
                sam.InverseProbabilityWeight(foj, rel, s))
          << rel << " sample " << s;
    }
  }
}

TEST(IpwPlanTest, MatchesReferenceOnChain) {
  const Database db = MakeChainDatabase();
  auto sam = SamModel::Create(db, ChainWorkload(), SchemaHints{}, 4,
                              SamOptions{});
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  ExpectIpwPlanMatchesReference(*sam.ValueOrDie());
}

TEST(IpwPlanTest, MatchesReferenceOnImdbLike) {
  const ImdbFixture imdb;
  auto sam = SamModel::Create(imdb.db, imdb.train, imdb.hints, imdb.foj_size,
                              SamOptions{});
  ASSERT_TRUE(sam.ok()) << sam.status().ToString();
  ExpectIpwPlanMatchesReference(*sam.ValueOrDie());
}

}  // namespace
}  // namespace sam
