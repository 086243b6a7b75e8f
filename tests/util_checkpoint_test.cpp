// Checkpoint store unit tests: escaping, atomic save/load round trips, and
// the tag/total mismatch refusals that keep two studies from mixing.
#include "util/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace su = softfet::util;

namespace {

/// Unique path under the gtest temp dir, removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

}  // namespace

TEST(CheckpointEscape, RoundTripsAwkwardStrings) {
  const std::string cases[] = {
      "",
      "plain",
      "two words",
      "tab\tnewline\ncarriage\rreturn",
      "percent % and %20 lookalikes",
      std::string("embedded\0nul", 12),
  };
  for (const auto& text : cases) {
    const std::string escaped = su::escape_field(text);
    EXPECT_EQ(escaped.find(' '), std::string::npos) << escaped;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << escaped;
    EXPECT_EQ(su::unescape_field(escaped), text);
  }
}

TEST(Checkpoint, FreshWhenFileMissing) {
  TempFile file("ckpt_fresh");
  const auto ckpt = su::Checkpoint::load_or_create(file.path, "tag a", 4);
  EXPECT_EQ(ckpt.total(), 4u);
  EXPECT_EQ(ckpt.completed(), 0u);
  EXPECT_FALSE(ckpt.has(0));
  EXPECT_FALSE(ckpt.payload(3).has_value());
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  TempFile file("ckpt_roundtrip");
  {
    auto ckpt = su::Checkpoint::load_or_create(file.path, "grid 3x2", 6);
    ckpt.record(0, "ok 0x1p+0");
    ckpt.record(5, "fail 0 2 ctx%20a msg");
    ckpt.save(file.path);
  }
  const auto loaded = su::Checkpoint::load_or_create(file.path, "grid 3x2", 6);
  EXPECT_EQ(loaded.completed(), 2u);
  ASSERT_TRUE(loaded.has(0));
  ASSERT_TRUE(loaded.has(5));
  EXPECT_FALSE(loaded.has(1));
  EXPECT_EQ(*loaded.payload(0), "ok 0x1p+0");
  EXPECT_EQ(*loaded.payload(5), "fail 0 2 ctx%20a msg");
}

TEST(Checkpoint, LastRecordWins) {
  su::Checkpoint ckpt("tag", 2);
  ckpt.record(1, "first");
  ckpt.record(1, "second");
  EXPECT_EQ(ckpt.completed(), 1u);
  EXPECT_EQ(*ckpt.payload(1), "second");
}

TEST(Checkpoint, RefusesTagMismatch) {
  TempFile file("ckpt_tag");
  {
    auto ckpt = su::Checkpoint::load_or_create(file.path, "seed=1", 3);
    ckpt.record(0, "x");
    ckpt.save(file.path);
  }
  // Same grid size, different study parameters: silently mixing the two
  // would corrupt statistics, so loading must throw.
  EXPECT_THROW(
      (void)su::Checkpoint::load_or_create(file.path, "seed=2", 3),
      softfet::Error);
}

TEST(Checkpoint, RefusesTotalMismatch) {
  TempFile file("ckpt_total");
  {
    auto ckpt = su::Checkpoint::load_or_create(file.path, "seed=1", 3);
    ckpt.save(file.path);
  }
  EXPECT_THROW(
      (void)su::Checkpoint::load_or_create(file.path, "seed=1", 4),
      softfet::Error);
}

TEST(Checkpoint, RefusesForeignFile) {
  TempFile file("ckpt_magic");
  {
    std::ofstream out(file.path);
    out << "not a checkpoint\n";
  }
  EXPECT_THROW(
      (void)su::Checkpoint::load_or_create(file.path, "tag", 1),
      softfet::Error);
}

TEST(Checkpoint, RefusesOutOfRangeSlot) {
  TempFile file("ckpt_slot");
  {
    std::ofstream out(file.path);
    out << "softfet-checkpoint v1\n";
    out << "tag t\n";
    out << "total 2\n";
    out << "slot 7 payload\n";
  }
  EXPECT_THROW(
      (void)su::Checkpoint::load_or_create(file.path, "t", 2),
      softfet::Error);
}

TEST(Checkpoint, SaveLeavesNoTmpBehind) {
  TempFile file("ckpt_tmp");
  su::Checkpoint ckpt("t", 1);
  ckpt.record(0, "p");
  ckpt.save(file.path);
  std::ifstream tmp(file.path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::ifstream real(file.path);
  EXPECT_TRUE(real.good());
}

namespace {

/// Writer t's payload for `slot` ("t3 s7"). Appended, not `"t" + ...`:
/// GCC 12 reports a false -Wrestrict inside libstdc++'s operator+ there.
std::string writer_payload(int t, std::size_t slot) {
  return std::string("t")
      .append(std::to_string(t))
      .append(" s")
      .append(std::to_string(slot));
}

}  // namespace

TEST(Checkpoint, ConcurrentWritersToDistinctFiles) {
  // N threads save their own files into one shared directory. Saves fsync
  // through per-save unique tmp names, so after the storm every file loads
  // back complete and no tmp litter remains in the directory.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ckpt_multi_writer";
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr int kThreads = 6;
  constexpr std::size_t kSlots = 16;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&dir, t] {
      const std::string path = (dir / ("w" + std::to_string(t))).string();
      auto ckpt = su::Checkpoint::load_or_create(path, "writer", kSlots);
      for (std::size_t slot = 0; slot < kSlots; ++slot) {
        ckpt.record(slot, writer_payload(t, slot));
        ckpt.save(path);  // save every record: maximum rename contention
      }
    });
  }
  for (auto& w : writers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    const std::string path = (dir / ("w" + std::to_string(t))).string();
    const auto loaded = su::Checkpoint::load_or_create(path, "writer", kSlots);
    EXPECT_EQ(loaded.completed(), kSlots) << path;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      ASSERT_TRUE(loaded.has(slot)) << path << " slot " << slot;
      EXPECT_EQ(*loaded.payload(slot), writer_payload(t, slot));
    }
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "stray tmp file " << entry.path();
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, ConcurrentWritersToTheSamePath) {
  // Two writers hammer the SAME target path. Unique per-save tmp names mean
  // each rename publishes one writer's complete file — the survivor is
  // either writer's state, never a torn mix, and no tmp files leak.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "ckpt_same_path";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "shared").string();

  constexpr std::size_t kSlots = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&path, t] {
      su::Checkpoint ckpt("shared", kSlots);
      for (std::size_t slot = 0; slot < kSlots; ++slot) {
        ckpt.record(slot, "writer" + std::to_string(t));
      }
      for (int round = 0; round < kRounds; ++round) ckpt.save(path);
    });
  }
  for (auto& w : writers) w.join();

  const auto loaded = su::Checkpoint::load_or_create(path, "shared", kSlots);
  EXPECT_EQ(loaded.completed(), kSlots);
  const std::string winner = *loaded.payload(0);
  EXPECT_TRUE(winner == "writer0" || winner == "writer1") << winner;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    ASSERT_TRUE(loaded.has(slot)) << slot;
    // Atomic publication: every slot carries the same writer's payload.
    EXPECT_EQ(*loaded.payload(slot), winner) << slot;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "stray tmp file " << entry.path();
  }
  fs::remove_all(dir);
}
