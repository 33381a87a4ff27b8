// Tests for CSV parsing and serialization.
#include "relation/csv.h"

#include <gtest/gtest.h>

namespace pcbl {
namespace {

TEST(CsvParseTest, SimpleRecords) {
  auto recs = ParseCsvRecords("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*recs)[2], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto recs = ParseCsvRecords("a,b\n1,2");
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ(recs->size(), 2u);
}

TEST(CsvParseTest, QuotedFieldsWithSeparators) {
  auto recs = ParseCsvRecords("a\n\"x,y\"\n");
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ((*recs)[1][0], "x,y");
}

TEST(CsvParseTest, EscapedQuotes) {
  auto recs = ParseCsvRecords("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ((*recs)[1][0], "he said \"hi\"");
}

TEST(CsvParseTest, NewlineInsideQuotes) {
  auto recs = ParseCsvRecords("a,b\n\"line1\nline2\",z\n");
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 2u);
  EXPECT_EQ((*recs)[1][0], "line1\nline2");
  EXPECT_EQ((*recs)[1][1], "z");
}

TEST(CsvParseTest, CrLfAndLoneCr) {
  auto recs = ParseCsvRecords("a,b\r\n1,2\r3,4\n");
  ASSERT_TRUE(recs.ok());
  ASSERT_EQ(recs->size(), 3u);
  EXPECT_EQ((*recs)[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParseTest, CustomSeparator) {
  CsvOptions opts;
  opts.separator = ';';
  auto recs = ParseCsvRecords("a;b\n1;2\n", opts);
  ASSERT_TRUE(recs.ok());
  EXPECT_EQ((*recs)[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParseTest, Errors) {
  EXPECT_FALSE(ParseCsvRecords("a\n\"unterminated\n").ok());
  EXPECT_FALSE(ParseCsvRecords("a\nfo\"o\n").ok());
}

TEST(CsvReadTest, BuildsTable) {
  auto t = ReadCsvString("name,color\nrex,brown\nmax,black\nrex,black\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_rows(), 3);
  EXPECT_EQ(t->num_attributes(), 2);
  EXPECT_EQ(t->ValueString(0, 0), "rex");
  EXPECT_EQ(t->DomainSize(1), 2u);
}

TEST(CsvReadTest, NullLiteralAndEmptyAreMissing) {
  auto t = ReadCsvString("a,b\nNULL,x\n,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(IsNull(t->value(0, 0)));
  EXPECT_TRUE(IsNull(t->value(1, 0)));
  EXPECT_FALSE(IsNull(t->value(0, 1)));
}

TEST(CsvReadTest, NullLiteralPreservedWhenDisabled) {
  CsvOptions opts;
  opts.null_literal = false;
  auto t = ReadCsvString("a\nNULL\n\n", opts);
  ASSERT_TRUE(t.ok());
  // "NULL" becomes a real value; the blank line is a one-empty-field
  // record, which still reads as missing.
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->ValueString(0, 0), "NULL");
  EXPECT_FALSE(IsNull(t->value(0, 0)));
  EXPECT_TRUE(IsNull(t->value(1, 0)));
}

TEST(CsvReadTest, OnlyUnquotedNullLiteralIsMissing) {
  auto t = ReadCsvString("a\n\"NULL\"\nNULL\n\"\"\n");
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_EQ(t->num_rows(), 3);
  EXPECT_FALSE(IsNull(t->value(0, 0)));
  EXPECT_EQ(t->ValueString(0, 0), "NULL");
  EXPECT_TRUE(IsNull(t->value(1, 0)));
  EXPECT_TRUE(IsNull(t->value(2, 0)));  // quoted empty stays missing
  EXPECT_EQ(t->NullCount(0), 2);
}

TEST(CsvRoundTripTest, NullValueSurvivesDefaultOptions) {
  CsvOptions keep_null;
  keep_null.null_literal = false;
  auto t = ReadCsvString("a,b\nNULL,x\n,NULL\n", keep_null);
  ASSERT_TRUE(t.ok()) << t.status();
  ASSERT_FALSE(IsNull(t->value(0, 0)));
  auto back = ReadCsvString(WriteCsvString(*t));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->num_rows(), t->num_rows());
  for (int64_t r = 0; r < t->num_rows(); ++r) {
    for (int a = 0; a < t->num_attributes(); ++a) {
      EXPECT_EQ(back->value(r, a), t->value(r, a)) << "row " << r;
      EXPECT_EQ(back->ValueString(r, a), t->ValueString(r, a));
    }
  }
  EXPECT_EQ(back->NullCount(0), 1);
  EXPECT_EQ(back->NullCount(1), 0);
}

TEST(CsvReadTest, RaggedRowFails) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n").ok());
}

TEST(CsvReadTest, EmptyInputFails) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvWriteTest, QuotesOnlyWhenNeeded) {
  auto b = TableBuilder::Create({"a", "b"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"plain", "with,comma"}).ok());
  ASSERT_TRUE(b->AddRow({"quote\"inside", "line\nbreak"}).ok());
  Table t = b->Build();
  std::string csv = WriteCsvString(t);
  EXPECT_NE(csv.find("plain"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(CsvWriteTest, NullsRenderAsEmptyFields) {
  auto b = TableBuilder::Create({"a", "b"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"", "x"}).ok());
  Table t = b->Build();
  EXPECT_EQ(WriteCsvString(t), "a,b\n,x\n");
}

TEST(CsvRoundTripTest, TableSurvives) {
  auto b = TableBuilder::Create({"n", "v"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"a,1", "x"}).ok());
  ASSERT_TRUE(b->AddRow({"", "y\"z"}).ok());
  ASSERT_TRUE(b->AddRow({"multi\nline", "w"}).ok());
  Table t = b->Build();
  auto t2 = ReadCsvString(WriteCsvString(t));
  ASSERT_TRUE(t2.ok()) << t2.status();
  ASSERT_EQ(t2->num_rows(), t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int a = 0; a < t.num_attributes(); ++a) {
      EXPECT_EQ(t2->ValueString(r, a), t.ValueString(r, a))
          << "row " << r << " attr " << a;
    }
  }
}

TEST(CsvFileTest, WriteAndReadBack) {
  auto b = TableBuilder::Create({"k"});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b->AddRow({"v1"}).ok());
  Table t = b->Build();
  std::string path = ::testing::TempDir() + "/pcbl_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto t2 = ReadCsvFile(path);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->ValueString(0, 0), "v1");
  EXPECT_FALSE(ReadCsvFile("/nonexistent/dir/file.csv").ok());
}

}  // namespace
}  // namespace pcbl
