// Tests for the generation-side checkpoint subsystem: full-state round-trip,
// newest-valid recovery across corrupt files, and pruning.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "ar/training_checkpoint.h"
#include "sam/generation_checkpoint.h"

namespace sam {
namespace {

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

GenerationCheckpoint MakeCheckpoint(uint64_t next_step) {
  GenerationCheckpoint c;
  c.fingerprint = 0x1234abcdull;
  c.base_seed = 77;
  c.next_step = next_step;
  GenerationCheckpoint::RelationState a;
  a.name = "parent";
  a.pk_counter = 42;
  a.rows_emitted = 40;
  a.row_chunk_seq = 3;
  a.virt_chunk_seq = {2, 0, 1};
  a.incoming_mass = 12.5;
  GenerationCheckpoint::RelationState b;
  b.name = "leaf";
  b.leaf.carry = 0.375;
  b.leaf.last_valid = true;
  b.leaf.last_sample = 9;
  b.leaf.last_fk = 5;
  c.relations = {a, b};
  c.manifest = {{"foj_000000.spill", 128}, {"rows_parent_000000.spill", 64}};
  c.rows_total = 40;
  c.spill_bytes = 192;
  c.peak_reserved = 4096;
  return c;
}

TEST(GenerationCheckpointTest, RoundTripsAllFields) {
  const std::string dir = TempDir("sam_genckpt_rt");
  const GenerationCheckpoint c = MakeCheckpoint(11);
  const std::string path = dir + "/" + GenerationCheckpointFileName(11);
  ASSERT_TRUE(c.Save(path).ok());

  auto back = GenerationCheckpoint::Load(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const GenerationCheckpoint& r = back.ValueOrDie();
  EXPECT_EQ(r.fingerprint, c.fingerprint);
  EXPECT_EQ(r.base_seed, c.base_seed);
  EXPECT_EQ(r.next_step, 11u);
  ASSERT_EQ(r.relations.size(), 2u);
  EXPECT_EQ(r.relations[0].name, "parent");
  EXPECT_EQ(r.relations[0].pk_counter, 42);
  EXPECT_EQ(r.relations[0].rows_emitted, 40u);
  EXPECT_EQ(r.relations[0].row_chunk_seq, 3u);
  EXPECT_EQ(r.relations[0].virt_chunk_seq, (std::vector<uint64_t>{2, 0, 1}));
  EXPECT_EQ(r.relations[0].incoming_mass, 12.5);
  EXPECT_EQ(r.relations[1].name, "leaf");
  EXPECT_EQ(r.relations[1].leaf.carry, 0.375);
  EXPECT_TRUE(r.relations[1].leaf.last_valid);
  EXPECT_EQ(r.relations[1].leaf.last_sample, 9u);
  EXPECT_EQ(r.relations[1].leaf.last_fk, 5);
  ASSERT_EQ(r.manifest.size(), 2u);
  EXPECT_EQ(r.manifest[0].name, "foj_000000.spill");
  EXPECT_EQ(r.manifest[0].bytes, 128u);
  EXPECT_EQ(r.rows_total, 40u);
  EXPECT_EQ(r.spill_bytes, 192u);
  EXPECT_EQ(r.peak_reserved, 4096);
}

TEST(GenerationCheckpointTest, FileNameSortsInStepOrder) {
  EXPECT_EQ(GenerationCheckpointFileName(0), "genckpt_00000000.ckpt");
  EXPECT_EQ(GenerationCheckpointFileName(37), "genckpt_00000037.ckpt");
  EXPECT_LT(GenerationCheckpointFileName(9), GenerationCheckpointFileName(10));
}

TEST(GenerationCheckpointTest, LoadLatestPicksNewestStep) {
  const std::string dir = TempDir("sam_genckpt_latest");
  ASSERT_TRUE(
      MakeCheckpoint(3).Save(dir + "/" + GenerationCheckpointFileName(3)).ok());
  ASSERT_TRUE(
      MakeCheckpoint(9).Save(dir + "/" + GenerationCheckpointFileName(9)).ok());
  std::string loaded;
  auto r = LoadLatestValidGenerationCheckpoint(dir, &loaded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().next_step, 9u);
  EXPECT_NE(loaded.find(GenerationCheckpointFileName(9)), std::string::npos);
}

TEST(GenerationCheckpointTest, LoadLatestSkipsCorruptNewest) {
  const std::string dir = TempDir("sam_genckpt_corrupt");
  ASSERT_TRUE(
      MakeCheckpoint(3).Save(dir + "/" + GenerationCheckpointFileName(3)).ok());
  // The newest file is torn: valid header prefix, truncated payload.
  const std::string newest = dir + "/" + GenerationCheckpointFileName(8);
  ASSERT_TRUE(MakeCheckpoint(8).Save(newest).ok());
  const auto full = std::filesystem::file_size(newest);
  std::filesystem::resize_file(newest, full / 2);

  std::string loaded;
  auto r = LoadLatestValidGenerationCheckpoint(dir, &loaded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().next_step, 3u);
}

TEST(GenerationCheckpointTest, LoadLatestNotFoundWhenEmpty) {
  const std::string dir = TempDir("sam_genckpt_empty");
  std::string loaded;
  auto r = LoadLatestValidGenerationCheckpoint(dir, &loaded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << r.status().ToString();
}

TEST(GenerationCheckpointTest, LoadLatestIOErrorWhenAllCorrupt) {
  const std::string dir = TempDir("sam_genckpt_allbad");
  std::ofstream(dir + "/" + GenerationCheckpointFileName(2)) << "garbage";
  std::string loaded;
  auto r = LoadLatestValidGenerationCheckpoint(dir, &loaded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
}

TEST(GenerationCheckpointTest, PruneKeepsNewestAndIgnoresTrainingFiles) {
  const std::string dir = TempDir("sam_genckpt_prune");
  for (uint64_t s : {1, 4, 7, 9}) {
    ASSERT_TRUE(
        MakeCheckpoint(s).Save(dir + "/" + GenerationCheckpointFileName(s)).ok());
  }
  // A training-style checkpoint in the same directory must survive pruning.
  std::ofstream(dir + "/ckpt_00000001.ckpt") << "training";

  PruneCheckpointsWithPrefix(dir, kGenerationCheckpointPrefix, 2);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + GenerationCheckpointFileName(1)));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + GenerationCheckpointFileName(4)));
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/" + GenerationCheckpointFileName(7)));
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/" + GenerationCheckpointFileName(9)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/ckpt_00000001.ckpt"));

  // keep == 0 keeps everything.
  PruneCheckpointsWithPrefix(dir, kGenerationCheckpointPrefix, 0);
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/" + GenerationCheckpointFileName(9)));
}

}  // namespace
}  // namespace sam
