// Tests for the SQL tokenizer and SQL2Template (including the paper's
// semantic-equivalence examples).

#include <gtest/gtest.h>

#include <string>

#include "sql/templater.h"
#include "sql/tokenizer.h"

namespace dbaugur::sql {
namespace {

TEST(TokenizerTest, BasicSelect) {
  auto toks = Tokenize("SELECT * FROM Stu WHERE id=5");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 8u);
  EXPECT_EQ((*toks)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[3].type, TokenType::kIdentifier);
  EXPECT_EQ((*toks)[3].text, "stu");  // identifiers lowercased
  EXPECT_EQ((*toks)[7].type, TokenType::kNumber);
}

TEST(TokenizerTest, KeywordsCaseInsensitive) {
  auto toks = Tokenize("select a fRoM b");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[2].text, "FROM");
}

TEST(TokenizerTest, StringsWithEscapes) {
  auto toks = Tokenize("SELECT * FROM t WHERE name = 'O''Brien'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks->back().type, TokenType::kString);
  EXPECT_EQ(toks->back().text, "'O''Brien'");
}

TEST(TokenizerTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(TokenizerTest, NumbersDecimalAndScientific) {
  auto toks = Tokenize("SELECT 1 , 2.5 , 3e4 , .5");
  ASSERT_TRUE(toks.ok());
  int numbers = 0;
  for (const auto& t : *toks) {
    if (t.type == TokenType::kNumber) ++numbers;
  }
  EXPECT_EQ(numbers, 4);
}

TEST(TokenizerTest, CommentsStripped) {
  auto toks = Tokenize("SELECT a -- trailing comment\nFROM t /* block */ WHERE b = 1");
  ASSERT_TRUE(toks.ok());
  for (const auto& t : *toks) {
    EXPECT_EQ(t.text.find("comment"), std::string::npos);
  }
  EXPECT_EQ((*toks)[2].text, "FROM");
}

TEST(TokenizerTest, UnterminatedBlockCommentRejected) {
  EXPECT_FALSE(Tokenize("SELECT a /* oops").ok());
}

TEST(TokenizerTest, QualifiedIdentifiers) {
  auto toks = Tokenize("SELECT a.id FROM a JOIN b ON a.id = b.id");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "a.id");
  EXPECT_EQ((*toks)[1].type, TokenType::kIdentifier);
}

TEST(TokenizerTest, MultiCharOperators) {
  auto toks = Tokenize("SELECT * FROM t WHERE a <= 1 AND b <> 2 AND c != 3");
  ASSERT_TRUE(toks.ok());
  int ops = 0;
  for (const auto& t : *toks) {
    if (t.type == TokenType::kOperator && t.text.size() == 2) ++ops;
  }
  EXPECT_EQ(ops, 3);
}

TEST(TokenizerTest, UnexpectedCharacterRejected) {
  EXPECT_FALSE(Tokenize("SELECT @ FROM t").ok());
}

TEST(TemplateTest, PaperExampleLiteralReplacement) {
  // "SELECT * FROM Stu WHERE id=5 and age>21 and height<180" from §IV-A.
  auto t = ToTemplate("SELECT * FROM Stu WHERE id=5 and age>21 and height<180");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->find("5"), std::string::npos);
  EXPECT_EQ(t->find("21"), std::string::npos);
  EXPECT_EQ(t->find("180"), std::string::npos);
  EXPECT_NE(t->find("?"), std::string::npos);
}

TEST(TemplateTest, WhitespaceAndCaseNormalized) {
  auto a = ToTemplate("SELECT  *   FROM stu WHERE id = 7");
  auto b = ToTemplate("select * from STU where ID=123");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, PaperExampleColumnOrder) {
  // "SELECT a, b FROM foo" == "SELECT b, a FROM foo" (paper §IV-A).
  auto a = ToTemplate("SELECT a, b FROM foo");
  auto b = ToTemplate("SELECT b, a FROM foo");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, PaperExampleJoinOrder) {
  // "SELECT * FROM A JOIN B ON A.id=B.id" == "... FROM B JOIN A ON B.id=A.id".
  auto a = ToTemplate("SELECT * FROM A JOIN B on A.id=B.id");
  auto b = ToTemplate("SELECT * FROM B JOIN A on B.id=A.id");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, CommutativePredicateOperands) {
  auto a = ToTemplate("SELECT * FROM t WHERE 5 = id");
  auto b = ToTemplate("SELECT * FROM t WHERE id = 5");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, FlippedInequalityOperands) {
  auto a = ToTemplate("SELECT * FROM t WHERE 21 < age");
  auto b = ToTemplate("SELECT * FROM t WHERE age > 21");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, AndTermOrderNormalized) {
  auto a = ToTemplate("SELECT * FROM t WHERE age > 21 AND id = 5");
  auto b = ToTemplate("SELECT * FROM t WHERE id = 5 AND age > 21");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, OrTermsNotReordered) {
  // Reordering around OR is unsafe with mixed AND/OR; must stay distinct
  // exactly as written.
  auto a = ToTemplate("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
  auto b = ToTemplate("SELECT * FROM t WHERE b = 2 AND c = 3 OR a = 1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST(TemplateTest, InListCollapsed) {
  auto a = ToTemplate("SELECT * FROM t WHERE id IN (1, 2, 3)");
  auto b = ToTemplate("SELECT * FROM t WHERE id IN (7)");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, InListCollapseCanBeDisabled) {
  TemplateOptions opts;
  opts.collapse_in_lists = false;
  auto a = ToTemplate("SELECT * FROM t WHERE id IN (1, 2, 3)", opts);
  auto b = ToTemplate("SELECT * FROM t WHERE id IN (7)", opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST(TemplateTest, TrailingSemicolonIgnored) {
  auto a = ToTemplate("SELECT * FROM t;");
  auto b = ToTemplate("SELECT * FROM t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, DifferentTablesStayDistinct) {
  auto a = ToTemplate("SELECT * FROM t1 WHERE id = 1");
  auto b = ToTemplate("SELECT * FROM t2 WHERE id = 1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

TEST(TemplateTest, UpdateStatements) {
  auto a = ToTemplate("UPDATE t SET x = 1.5, y = 2 WHERE id = 10");
  auto b = ToTemplate("UPDATE t SET x = 9.9, y = 8 WHERE id = 33");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(TemplateTest, EmptyStatementRejected) {
  EXPECT_FALSE(ToTemplate("").ok());
  EXPECT_FALSE(ToTemplate("   ").ok());
}

TEST(FingerprintTest, StableAndDiscriminating) {
  EXPECT_EQ(Fingerprint("abc"), Fingerprint("abc"));
  EXPECT_NE(Fingerprint("abc"), Fingerprint("abd"));
  EXPECT_NE(Fingerprint(""), Fingerprint("a"));
}

TEST(RegistryTest, CountsAndFrequencyOrder) {
  TemplateRegistry reg;
  for (int i = 0; i < 5; ++i) {
    auto id = reg.Record("SELECT * FROM a WHERE id = " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 0u);
  }
  for (int i = 0; i < 2; ++i) {
    auto id = reg.Record("SELECT * FROM b WHERE id = " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 1u);
  }
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.count(0), 5);
  EXPECT_EQ(reg.count(1), 2);
  auto found = reg.Lookup(reg.template_text(1));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);
  EXPECT_FALSE(reg.Lookup("SELECT nothing").ok());
}

// --- hardening against malformed / truncated / binary-garbage input ---------

TEST(TokenizerHardeningTest, RejectsControlBytesWithHexDiagnostics) {
  std::string sql = "SELECT ";
  sql += '\x01';
  sql += " FROM t";
  auto toks = Tokenize(sql);
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("0x01"), std::string::npos)
      << toks.status().message();
}

TEST(TokenizerHardeningTest, RejectsEmbeddedNulByte) {
  std::string sql = "SELECT ";
  sql += '\0';  // a torn write, not a terminator
  sql += "FROM tickets";
  auto toks = Tokenize(sql);
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("0x00"), std::string::npos)
      << toks.status().message();
}

TEST(TokenizerHardeningTest, RejectsNulInsideStringLiteral) {
  std::string sql = "SELECT * FROM t WHERE note = 'a";
  sql += '\0';
  sql += "b'";
  auto toks = Tokenize(sql);
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("NUL"), std::string::npos)
      << toks.status().message();
}

TEST(TokenizerHardeningTest, RejectsDeleteAndHighBytes) {
  std::string del = "SELECT a";
  del += '\x7F';
  EXPECT_FALSE(Tokenize(del).ok());
  // Bytes >= 0x80 are "unexpected", reported hex-escaped instead of echoing
  // raw binary into logs.
  std::string high = "SELECT ";
  high += static_cast<char>(0xC3);
  auto toks = Tokenize(high);
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("0xC3"), std::string::npos)
      << toks.status().message();
}

TEST(TokenizerHardeningTest, TabsAndNewlinesAreStillWhitespace) {
  auto toks = Tokenize("SELECT\ta\nFROM\r\nb");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].text, "FROM");
}

TEST(TokenizerHardeningTest, TruncatedStatementsRejectCleanly) {
  EXPECT_FALSE(Tokenize("SELECT * FROM t WHERE name = 'truncat").ok());
  EXPECT_FALSE(Tokenize("SELECT * FROM t /* cut mid-comment").ok());
  EXPECT_FALSE(Tokenize("SELECT @@rowcount").ok());
}

}  // namespace
}  // namespace dbaugur::sql
