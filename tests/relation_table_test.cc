// Tests for Dictionary, Schema, Table and TableBuilder.
#include "relation/table.h"

#include <gtest/gtest.h>

#include "relation/dictionary.h"
#include "relation/schema.h"
#include "util/str.h"

namespace pcbl {
namespace {

TEST(DictionaryTest, InternAssignsDenseIdsInFirstSeenOrder) {
  Dictionary d;
  EXPECT_EQ(d.Intern("a"), 0u);
  EXPECT_EQ(d.Intern("b"), 1u);
  EXPECT_EQ(d.Intern("a"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.GetString(0), "a");
  EXPECT_EQ(d.GetString(1), "b");
}

TEST(DictionaryTest, LookupDoesNotIntern) {
  Dictionary d;
  EXPECT_EQ(d.Lookup("missing"), kNullValue);
  EXPECT_EQ(d.size(), 0u);
  d.Intern("x");
  EXPECT_EQ(d.Lookup("x"), 0u);
  EXPECT_TRUE(d.Contains("x"));
  EXPECT_FALSE(d.Contains("y"));
}

TEST(DictionaryTest, IndexGrowsAndCopiesKeepEveryId) {
  // Enough values to grow the index several times, including the empty
  // string, an embedded NUL and values sharing long prefixes.
  std::vector<std::string> values = {"", std::string("a\0b", 3), "a"};
  for (int i = 0; i < 5000; ++i) {
    values.push_back(StrCat("shared-prefix-longer-than-a-word-", i));
  }
  Dictionary d;
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(d.Intern(values[i]), static_cast<ValueId>(i));
  }
  const Dictionary copy = d;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(d.Intern(values[i]), static_cast<ValueId>(i));
    EXPECT_EQ(copy.Lookup(values[i]), static_cast<ValueId>(i));
    EXPECT_EQ(copy.GetString(static_cast<ValueId>(i)), values[i]);
  }
  EXPECT_EQ(d.size(), values.size());
  EXPECT_EQ(copy.Lookup("shared-prefix-longer-than-a-word-5000"), kNullValue);
  EXPECT_EQ(copy.Lookup(std::string("a\0c", 3)), kNullValue);
  EXPECT_GT(d.MemoryBytes(),
            static_cast<int64_t>(values.size() * sizeof(std::string)));
}

TEST(SchemaTest, CreateAndFind) {
  auto s = Schema::Create({"a", "b", "c"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_attributes(), 3);
  EXPECT_EQ(s->name(1), "b");
  EXPECT_EQ(s->FindAttribute("c").value(), 2);
  EXPECT_FALSE(s->FindAttribute("z").ok());
  EXPECT_TRUE(s->HasAttribute("a"));
  EXPECT_FALSE(s->HasAttribute("z"));
}

TEST(SchemaTest, RejectsDuplicates) {
  EXPECT_FALSE(Schema::Create({"a", "b", "a"}).ok());
}

TEST(SchemaTest, RejectsTooManyAttributes) {
  std::vector<std::string> names;
  for (int i = 0; i < 65; ++i) names.push_back(StrCat("a", i));
  EXPECT_FALSE(Schema::Create(names).ok());
}

TEST(TableBuilderTest, BuildsFromStringRows) {
  auto b = TableBuilder::Create({"x", "y"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"1", "a"}).ok());
  ASSERT_TRUE(b->AddRow({"2", "a"}).ok());
  ASSERT_TRUE(b->AddRow({"1", "b"}).ok());
  Table t = b->Build();
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_attributes(), 2);
  EXPECT_EQ(t.ValueString(0, 0), "1");
  EXPECT_EQ(t.ValueString(2, 1), "b");
  EXPECT_EQ(t.DomainSize(0), 2u);
  EXPECT_EQ(t.DomainSize(1), 2u);
  // Same string in different attributes gets independent ids.
  EXPECT_EQ(t.value(0, 0), 0u);
  EXPECT_EQ(t.value(0, 1), 0u);
}

TEST(TableBuilderTest, EmptyAndNullLiteralsAreMissing) {
  auto b = TableBuilder::Create({"x"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({""}).ok());
  ASSERT_TRUE(b->AddRow({"NULL"}).ok());
  ASSERT_TRUE(b->AddRow({"v"}).ok());
  Table t = b->Build();
  EXPECT_TRUE(IsNull(t.value(0, 0)));
  EXPECT_TRUE(IsNull(t.value(1, 0)));
  EXPECT_FALSE(IsNull(t.value(2, 0)));
  EXPECT_EQ(t.NullCount(0), 2);
  EXPECT_EQ(t.ValueString(0, 0), "NULL");
}

TEST(TableBuilderTest, RejectsWrongArity) {
  auto b = TableBuilder::Create({"x", "y"});
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->AddRow({"1"}).ok());
  EXPECT_FALSE(b->AddRow({"1", "2", "3"}).ok());
}

TEST(TableBuilderTest, AddRowCodesValidatesRange) {
  auto b = TableBuilder::Create({"x"});
  ASSERT_TRUE(b.ok());
  b->InternValue(0, "a");
  EXPECT_TRUE(b->AddRowCodes({0}).ok());
  EXPECT_TRUE(b->AddRowCodes({kNullValue}).ok());
  EXPECT_FALSE(b->AddRowCodes({5}).ok());
}

TEST(TableBuilderTest, InternValueFixesIdOrder) {
  auto b = TableBuilder::Create({"x"});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->InternValue(0, "z"), 0u);
  EXPECT_EQ(b->InternValue(0, "a"), 1u);
  ASSERT_TRUE(b->AddRow({"a"}).ok());
  Table t = b->Build();
  EXPECT_EQ(t.value(0, 0), 1u);
}

TEST(TableTest, ProjectKeepsSelectedColumns) {
  auto b = TableBuilder::Create({"a", "b", "c"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"1", "2", "3"}).ok());
  ASSERT_TRUE(b->AddRow({"4", "5", "6"}).ok());
  Table t = b->Build();
  auto p = t.Project(AttrMask::FromIndices({0, 2}));
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_attributes(), 2);
  EXPECT_EQ(p->schema().name(0), "a");
  EXPECT_EQ(p->schema().name(1), "c");
  EXPECT_EQ(p->ValueString(1, 1), "6");
  EXPECT_EQ(p->num_rows(), 2);
}

TEST(TableTest, ProjectOutOfRangeFails) {
  auto b = TableBuilder::Create({"a"});
  ASSERT_TRUE(b.ok());
  Table t = b->Build();
  EXPECT_FALSE(t.Project(AttrMask::FromIndices({3})).ok());
}

TEST(TableTest, ProjectPrefix) {
  auto b = TableBuilder::Create({"a", "b", "c"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"1", "2", "3"}).ok());
  Table t = b->Build();
  auto p = t.ProjectPrefix(2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_attributes(), 2);
  EXPECT_FALSE(t.ProjectPrefix(5).ok());
  EXPECT_FALSE(t.ProjectPrefix(-1).ok());
}

TEST(TableTest, EmptyTableBasics) {
  auto b = TableBuilder::Create({"a", "b"});
  ASSERT_TRUE(b.ok());
  Table t = b->Build();
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_EQ(t.num_attributes(), 2);
  EXPECT_EQ(t.DomainSize(0), 0u);
}

TEST(TableTest, DebugStringTruncates) {
  auto b = TableBuilder::Create({"a"});
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(b->AddRow({std::to_string(i)}).ok());
  }
  Table t = b->Build();
  std::string s = t.ToDebugString(5);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

}  // namespace
}  // namespace pcbl
