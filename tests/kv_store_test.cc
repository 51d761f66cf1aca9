#include "storage/kv_store.h"

#include <gtest/gtest.h>

#include "common/fault_fs.h"
#include "common/file_util.h"
#include "common/string_util.h"

namespace mlake::storage {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-kv");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    path_ = JoinPath(dir_, "kv.log");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string dir_;
  std::string path_;
};

TEST_F(KvStoreTest, PutGetDelete) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("k1", "v1").ok());
  ASSERT_TRUE(store->Put("k2", "v2").ok());
  EXPECT_EQ(store->Get("k1").ValueOrDie(), "v1");
  EXPECT_TRUE(store->Contains("k2"));
  EXPECT_FALSE(store->Contains("k3"));
  EXPECT_TRUE(store->Get("k3").status().IsNotFound());
  EXPECT_EQ(store->Count(), 2u);

  ASSERT_TRUE(store->Delete("k1").ok());
  EXPECT_FALSE(store->Contains("k1"));
  EXPECT_EQ(store->Count(), 1u);
  // Deleting a missing key is a no-op.
  ASSERT_TRUE(store->Delete("never-there").ok());
}

TEST_F(KvStoreTest, OverwriteKeepsLatest) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("k", "v1").ok());
  ASSERT_TRUE(store->Put("k", "v2").ok());
  EXPECT_EQ(store->Get("k").ValueOrDie(), "v2");
  EXPECT_EQ(store->Count(), 1u);
}

TEST_F(KvStoreTest, EmptyKeyRejected) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_TRUE(store->Put("", "v").IsInvalidArgument());
}

TEST_F(KvStoreTest, BinarySafeValues) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  std::string value("\x00\x01\xff ramble\n\r", 10);
  ASSERT_TRUE(store->Put("bin", value).ok());
  EXPECT_EQ(store->Get("bin").ValueOrDie(), value);
}

TEST_F(KvStoreTest, PersistsAcrossReopen) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->Put("b", "2").ok());
    ASSERT_TRUE(store->Delete("a").ok());
    ASSERT_TRUE(store->Put("c", "3").ok());
  }
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 2u);
  EXPECT_FALSE(store->Contains("a"));
  EXPECT_EQ(store->Get("b").ValueOrDie(), "2");
  EXPECT_EQ(store->Get("c").ValueOrDie(), "3");
}

TEST_F(KvStoreTest, ScanPrefixSorted) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Put("card/m2", "x").ok());
  ASSERT_TRUE(store->Put("card/m1", "x").ok());
  ASSERT_TRUE(store->Put("model/m1", "x").ok());
  ASSERT_TRUE(store->Put("carding/oops", "x").ok());
  EXPECT_EQ(store->ScanPrefix("card/"),
            (std::vector<std::string>{"card/m1", "card/m2"}));
  EXPECT_EQ(store->ScanPrefix("zzz").size(), 0u);
  EXPECT_EQ(store->ScanPrefix("").size(), 4u);
}

TEST_F(KvStoreTest, CompactShrinksLogAndKeepsData) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  // Many overwrites of the same key bloat the log.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put("hot", StrFormat("v%d", i)).ok());
  }
  ASSERT_TRUE(store->Put("cold", "stable").ok());
  uint64_t before = store->LogBytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->LogBytes(), before / 10);
  EXPECT_EQ(store->Get("hot").ValueOrDie(), "v99");
  EXPECT_EQ(store->Get("cold").ValueOrDie(), "stable");

  // Still intact after reopen.
  auto reopened = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->Get("hot").ValueOrDie(), "v99");
  EXPECT_EQ(reopened->Count(), 2u);
}

TEST_F(KvStoreTest, TornTailRecovered) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("good1", "v1").ok());
    ASSERT_TRUE(store->Put("good2", "v2").ok());
  }
  // Simulate a crash mid-append: garbage bytes at the tail.
  ASSERT_TRUE(AppendFile(path_, "\x13\x37garbage-torn-record").ok());

  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 2u);
  EXPECT_EQ(store->Get("good1").ValueOrDie(), "v1");
  EXPECT_EQ(store->Get("good2").ValueOrDie(), "v2");
  // The corrupt tail was truncated; new appends work and survive.
  ASSERT_TRUE(store->Put("good3", "v3").ok());
  auto reopened = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->Count(), 3u);
  EXPECT_EQ(reopened->Get("good3").ValueOrDie(), "v3");
}

TEST_F(KvStoreTest, CorruptedMiddleRecordStopsReplayAtLastValidPrefix) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("first", "1").ok());
    ASSERT_TRUE(store->Put("second", "2").ok());
  }
  // Flip one byte inside the *second* record's payload region.
  auto content = ReadFile(path_).MoveValueUnsafe();
  content[content.size() - 2] ^= 0x5A;
  ASSERT_TRUE(WriteFile(path_, content).ok());

  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1u);
  EXPECT_EQ(store->Get("first").ValueOrDie(), "1");
  EXPECT_FALSE(store->Contains("second"));
}

TEST_F(KvStoreTest, TruncatedLengthPrefixRecovered) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("key", "value").ok());
  }
  // Append a record header claiming a huge value that never arrives.
  std::string partial;
  partial.append("\x01\x02\x03\x04", 4);  // bogus crc
  partial.push_back('\x01');              // type put
  partial.append("\x02\x00\x00\x00ab", 6);
  partial.append("\xff\xff\x00\x00", 4);  // value length 65535, missing
  ASSERT_TRUE(AppendFile(path_, partial).ok());
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1u);
}

TEST_F(KvStoreTest, ManyKeysStressAndReopen) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          store->Put(StrFormat("key-%04d", i), StrFormat("val-%d", i)).ok());
    }
    for (int i = 0; i < 1000; i += 3) {
      ASSERT_TRUE(store->Delete(StrFormat("key-%04d", i)).ok());
    }
  }
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 1000u - 334u);
  EXPECT_FALSE(store->Contains("key-0000"));
  EXPECT_EQ(store->Get("key-0001").ValueOrDie(), "val-1");
}

std::vector<KvWrite> ThreeRecordBatch() {
  return {{"b/1", "one"}, {"b/2", std::string(300, 'x')}, {"b/3", "three"}};
}

TEST_F(KvStoreTest, BatchWriteIsVisibleAndReplayed) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("old", "gone soon").ok());
    std::vector<KvWrite> batch = ThreeRecordBatch();
    batch.push_back({"old", "", /*erase=*/true});
    batch.push_back({"b/1", "one again"});  // later record wins
    ASSERT_TRUE(store->Write(std::move(batch)).ok());
    EXPECT_EQ(store->Count(), 3u);
    EXPECT_FALSE(store->Contains("old"));
    EXPECT_EQ(store->Get("b/1").ValueOrDie(), "one again");
    EXPECT_EQ(store->Get("b/2").ValueOrDie(), std::string(300, 'x'));
    EXPECT_EQ(store->Get("b/3").ValueOrDie(), "three");
    EXPECT_EQ(store->LogBytes(), FileSize(path_).ValueOrDie());
  }
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->Count(), 3u);
  EXPECT_FALSE(store->Contains("old"));
  EXPECT_EQ(store->Get("b/1").ValueOrDie(), "one again");
  EXPECT_EQ(store->Get("b/3").ValueOrDie(), "three");
}

TEST_F(KvStoreTest, BatchWithEmptyKeyWritesNothing) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  std::vector<KvWrite> batch = ThreeRecordBatch();
  batch.push_back({"", "v"});
  EXPECT_TRUE(store->Write(std::move(batch)).IsInvalidArgument());
  EXPECT_EQ(store->Count(), 0u);
  EXPECT_EQ(store->LogBytes(), 0u);
  EXPECT_FALSE(FileExists(path_));
}

// A delete of a key that is absent writes nothing, in a batch as in
// Delete; a delete of a key put earlier in the same batch still lands.
TEST_F(KvStoreTest, DeleteOfAbsentKeyWritesNothing) {
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(store->Delete("never").ok());
  EXPECT_EQ(store->LogBytes(), 0u);
  EXPECT_FALSE(FileExists(path_));
  ASSERT_TRUE(store->Put("keep", "k").ok());
  const uint64_t one_record = store->LogBytes();
  std::vector<KvWrite> batch;
  batch.push_back({"never", "", /*erase=*/true});
  batch.push_back({"brief", "b"});
  batch.push_back({"brief", "", /*erase=*/true});
  ASSERT_TRUE(store->Write(std::move(batch)).ok());
  EXPECT_EQ(store->LogBytes(), one_record + 13 + 5 + 1 + 13 + 5);
  EXPECT_EQ(store->Count(), 1u);
  EXPECT_FALSE(store->Contains("brief"));
  auto reopened = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->Count(), 1u);
  EXPECT_FALSE(reopened->Contains("brief"));
}

// A failed or short batch append leaves the log length and every key
// as they were, in process and after a reopen.
TEST_F(KvStoreTest, FailedBatchAppendLeavesStoreUnchanged) {
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("b/2", "before").ok());
    ASSERT_TRUE(store->Put("keep", "k").ok());
  }
  const std::string before = ReadFile(path_).ValueOrDie();
  for (bool short_write : {false, true}) {
    SCOPED_TRACE(short_write ? "short append" : "failed append");
    FaultPlan plan;
    plan.seed = 7;
    if (short_write) {
      plan.short_write_rate = 1.0;
    } else {
      plan.fail_ops = {1};  // the batch's append is the first mutating op
    }
    FaultInjectingFs fs(RealFs(), plan);
    auto store = KvStore::Open(path_, {}, &fs).MoveValueUnsafe();
    const uint64_t log_bytes = store->LogBytes();
    std::vector<KvWrite> batch = ThreeRecordBatch();
    batch.push_back({"keep", "", /*erase=*/true});
    EXPECT_FALSE(store->Write(std::move(batch)).ok());
    EXPECT_EQ(fs.injected_errors(), 1u);
    EXPECT_EQ(store->LogBytes(), log_bytes);
    EXPECT_EQ(store->Count(), 2u);
    EXPECT_EQ(store->Get("b/2").ValueOrDie(), "before");
    EXPECT_EQ(store->Get("keep").ValueOrDie(), "k");
    EXPECT_FALSE(store->Contains("b/1"));
    EXPECT_FALSE(store->Contains("b/3"));
    EXPECT_EQ(ReadFile(path_).ValueOrDie(), before);

    auto reopened = KvStore::Open(path_).MoveValueUnsafe();
    EXPECT_EQ(reopened->LogBytes(), log_bytes);
    EXPECT_EQ(reopened->Count(), 2u);
    EXPECT_EQ(reopened->Get("b/2").ValueOrDie(), "before");
    EXPECT_EQ(reopened->Get("keep").ValueOrDie(), "k");
  }
}

// A crash that tears a batch's append leaves a prefix of its records;
// replay keeps exactly the complete ones before the tear.
TEST_F(KvStoreTest, TornBatchReplaysCompleteRecordsBeforeTheTear) {
  uint64_t pre_batch = 0;
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    ASSERT_TRUE(store->Put("pre", "p").ok());
    pre_batch = store->LogBytes();
    std::vector<KvWrite> batch = ThreeRecordBatch();
    ASSERT_TRUE(store->Write(std::move(batch)).ok());
  }
  // crc + type + two length prefixes + "b/1" + "one".
  const uint64_t after_first = pre_batch + 13 + 3 + 3;
  const std::string full = ReadFile(path_).ValueOrDie();
  // Cut inside the second record: 10 bytes past the end of the first.
  ASSERT_TRUE(WriteFile(path_, full.substr(0, after_first + 10)).ok());
  {
    auto store = KvStore::Open(path_).MoveValueUnsafe();
    EXPECT_EQ(store->LogBytes(), after_first);
    EXPECT_EQ(store->Count(), 2u);
    EXPECT_EQ(store->Get("pre").ValueOrDie(), "p");
    EXPECT_EQ(store->Get("b/1").ValueOrDie(), "one");
    EXPECT_FALSE(store->Contains("b/2"));
    EXPECT_FALSE(store->Contains("b/3"));
  }
  EXPECT_EQ(FileSize(path_).ValueOrDie(), after_first);
  // Cut inside the first record: nothing of the batch survives.
  ASSERT_TRUE(WriteFile(path_, full.substr(0, pre_batch + 3)).ok());
  auto store = KvStore::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(store->LogBytes(), pre_batch);
  EXPECT_EQ(store->Count(), 1u);
  EXPECT_FALSE(store->Contains("b/1"));
}

}  // namespace
}  // namespace mlake::storage
