#include "storage/catalog.h"

#include <gtest/gtest.h>

#include "common/file_util.h"

namespace mlake::storage {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("mlake-catalog");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.ValueUnsafe();
    path_ = JoinPath(dir_, "catalog.log");
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  std::string dir_;
  std::string path_;
};

Json Doc(const std::string& value) {
  Json j = Json::MakeObject();
  j.Set("v", value);
  return j;
}

TEST_F(CatalogTest, PutGetByKind) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "m1", Doc("card1")).ok());
  ASSERT_TRUE(catalog->PutDoc("model", "m1", Doc("model1")).ok());

  EXPECT_EQ(catalog->GetDoc("card", "m1").ValueOrDie().GetString("v"),
            "card1");
  EXPECT_EQ(catalog->GetDoc("model", "m1").ValueOrDie().GetString("v"),
            "model1");
  EXPECT_TRUE(catalog->Contains("card", "m1"));
  EXPECT_FALSE(catalog->Contains("card", "m2"));
  EXPECT_TRUE(catalog->GetDoc("card", "m2").status().IsNotFound());
}

TEST_F(CatalogTest, KindsAreIsolatedInListing) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "b", Doc("x")).ok());
  ASSERT_TRUE(catalog->PutDoc("card", "a", Doc("x")).ok());
  ASSERT_TRUE(catalog->PutDoc("model", "z", Doc("x")).ok());
  EXPECT_EQ(catalog->ListIds("card"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog->ListIds("model"), (std::vector<std::string>{"z"}));
  EXPECT_EQ(catalog->CountKind("card"), 2u);
  EXPECT_TRUE(catalog->ListIds("nothing").empty());
}

TEST_F(CatalogTest, IdsMayContainSlashes) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("dataset", "legal-sum/us-courts", Doc("d")).ok());
  EXPECT_TRUE(catalog->Contains("dataset", "legal-sum/us-courts"));
  EXPECT_EQ(catalog->ListIds("dataset"),
            (std::vector<std::string>{"legal-sum/us-courts"}));
}

TEST_F(CatalogTest, InvalidKindOrIdRejected) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  EXPECT_TRUE(catalog->PutDoc("", "id", Doc("x")).IsInvalidArgument());
  EXPECT_TRUE(catalog->PutDoc("kind", "", Doc("x")).IsInvalidArgument());
  EXPECT_TRUE(catalog->PutDoc("bad/kind", "id", Doc("x")).IsInvalidArgument());
}

TEST_F(CatalogTest, DeleteAndReplace) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "m", Doc("v1")).ok());
  ASSERT_TRUE(catalog->PutDoc("card", "m", Doc("v2")).ok());
  EXPECT_EQ(catalog->GetDoc("card", "m").ValueOrDie().GetString("v"), "v2");
  ASSERT_TRUE(catalog->DeleteDoc("card", "m").ok());
  EXPECT_FALSE(catalog->Contains("card", "m"));
}

TEST_F(CatalogTest, PersistsAcrossReopenWithCompaction) {
  {
    auto catalog = Catalog::Open(path_).MoveValueUnsafe();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(catalog->PutDoc("card", "m", Doc(std::to_string(i))).ok());
    }
    ASSERT_TRUE(catalog->PutDoc("graph", "main", Doc("g")).ok());
    ASSERT_TRUE(catalog->Compact().ok());
  }
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(catalog->GetDoc("card", "m").ValueOrDie().GetString("v"), "19");
  EXPECT_EQ(catalog->GetDoc("graph", "main").ValueOrDie().GetString("v"),
            "g");
}

TEST_F(CatalogTest, ComplexDocumentRoundTrip) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  Json doc = Json::MakeObject();
  doc.Set("nested", Json::Parse(R"({"a": [1, 2, {"b": true}]})").ValueOrDie());
  doc.Set("num", 3.125);
  ASSERT_TRUE(catalog->PutDoc("meta", "m", doc).ok());
  Json back = catalog->GetDoc("meta", "m").ValueOrDie();
  EXPECT_TRUE(back == doc);
}

TEST_F(CatalogTest, BatchLandsInOneAppend) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  ASSERT_TRUE(catalog->PutDoc("card", "old", Doc("x")).ok());
  const uint64_t before = catalog->kv()->LogBytes();
  Catalog::Batch batch;
  batch.PutDoc("card", "m", Doc("c"));
  batch.PutRaw("vec", "m", std::string("[\x00\xff", 3));  // not JSON
  batch.DeleteDoc("card", "old");
  ASSERT_TRUE(catalog->Write(std::move(batch)).ok());
  EXPECT_EQ(catalog->GetDoc("card", "m").ValueOrDie().GetString("v"), "c");
  EXPECT_EQ(catalog->GetRaw("vec", "m").ValueOrDie(),
            std::string("[\x00\xff", 3));
  EXPECT_FALSE(catalog->Contains("card", "old"));
  EXPECT_GT(catalog->kv()->LogBytes(), before);

  auto reopened = Catalog::Open(path_).MoveValueUnsafe();
  EXPECT_EQ(reopened->GetRaw("vec", "m").ValueOrDie(),
            std::string("[\x00\xff", 3));
  EXPECT_FALSE(reopened->Contains("card", "old"));
}

TEST_F(CatalogTest, BatchWithInvalidKindWritesNothing) {
  auto catalog = Catalog::Open(path_).MoveValueUnsafe();
  Catalog::Batch batch;
  batch.PutDoc("card", "m", Doc("c"));
  batch.PutRaw("bad/kind", "m", "x");
  EXPECT_TRUE(catalog->Write(std::move(batch)).IsInvalidArgument());
  EXPECT_FALSE(catalog->Contains("card", "m"));
  EXPECT_EQ(catalog->kv()->LogBytes(), 0u);
}

}  // namespace
}  // namespace mlake::storage
