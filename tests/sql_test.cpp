// Tests for the SQL tokenizer and SQL2Template (including the paper's
// semantic-equivalence examples), and the golden corpus in sql_golden.txt.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

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

TEST(TemplateTest, BetweenBoundsStayInTheirConjunct) {
  // The AND of BETWEEN x AND y joins the bounds: the conjunct sort moves the
  // whole BETWEEN and never splits it there.
  EXPECT_EQ(*ToTemplate("SELECT COUNT(*) FROM tickets WHERE price BETWEEN 24 "
                        "AND 44"),
            "SELECT COUNT (*) FROM tickets WHERE price BETWEEN ? AND ?");
  for (const char* s : {"SELECT * FROM t WHERE b = 1 AND a BETWEEN 1 AND 2",
                        "SELECT * FROM t WHERE a BETWEEN 1 AND 2 AND b = 1"}) {
    EXPECT_EQ(*ToTemplate(s),
              "SELECT * FROM t WHERE a BETWEEN ? AND ? AND b = ?")
        << s;
  }
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE z BETWEEN 1 AND 2 AND b = 1"),
            "SELECT * FROM t WHERE b = ? AND z BETWEEN ? AND ?");
  EXPECT_EQ(
      *ToTemplate("SELECT * FROM t WHERE b = 1 AND a NOT BETWEEN 1 AND 2"),
      "SELECT * FROM t WHERE a NOT BETWEEN ? AND ? AND b = ?");
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

TEST(TemplateTest, SignedLiteralsShareTheUnsignedTemplate) {
  // A sign after an operator, '(', ',', a keyword that opens an operand or
  // nothing belongs to its number, so one query shape stays one template.
  for (const char* s :
       {"SELECT * FROM t WHERE id = 5", "SELECT * FROM t WHERE id = -5",
        "SELECT * FROM t WHERE id = +5", "SELECT * FROM t WHERE id = - 5",
        "SELECT * FROM t WHERE -5 = id"}) {
    auto t = ToTemplate(s);
    ASSERT_TRUE(t.ok()) << s;
    EXPECT_EQ(*t, "SELECT * FROM t WHERE id = ?") << s;
  }
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE id IN (-1, 2, -3)"),
            "SELECT * FROM t WHERE id IN (?)");
  EXPECT_EQ(*ToTemplate("INSERT INTO t VALUES (-1, +2.5, -.5e3)"),
            "INSERT INTO t VALUES (?, ?, ?)");
  EXPECT_EQ(*ToTemplate("UPDATE p SET lat = 40.5, lon = -79.9 WHERE k = 1"),
            "UPDATE p SET lat = ?, lon = ? WHERE k = ?");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE x * -2 > 1"),
            "SELECT * FROM t WHERE x * ? > ?");
  EXPECT_EQ(*ToTemplate("SELECT -1"), "SELECT ?");
  EXPECT_EQ(*ToTemplate("-1"), "?");
}

TEST(TemplateTest, BinaryMinusAndNonNumericSignsAreKept) {
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE a - 5 > b"),
            "SELECT * FROM t WHERE a - ? > b");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE (a) - 5 = b"),
            "SELECT * FROM t WHERE (a) - ? = b");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE x = 3 - 5"),
            "SELECT * FROM t WHERE x = ? - ?");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE x = ? - 5"),
            "SELECT * FROM t WHERE x = ? - ?");
  // Only a number takes the sign: a signed column or string keeps it.
  EXPECT_EQ(*ToTemplate("SELECT f(-5, -x) FROM t"), "SELECT f (?, - x) FROM t");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE x = -'a'"),
            "SELECT * FROM t WHERE x = - ?");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t WHERE x = - -5"),
            "SELECT * FROM t WHERE x = - ?");
}

TEST(TemplateTest, SignAfterAnOperandEndingKeywordIsBinary) {
  // END, NULL and the keywords that can also name a column (COUNT, KEY,
  // INDEX, MIN, ...) end an operand, so a sign after them is an operator
  // and `- 1` and `+ 1` keep their own templates.
  EXPECT_EQ(*ToTemplate("UPDATE t SET count = count - 1"),
            "UPDATE t SET COUNT = COUNT - ?");
  EXPECT_EQ(*ToTemplate("UPDATE t SET count = count + 1"),
            "UPDATE t SET COUNT = COUNT + ?");
  EXPECT_EQ(*ToTemplate("SELECT CASE WHEN a = 1 THEN 1 ELSE 2 END - 1 FROM t"),
            "SELECT CASE WHEN a = ? THEN ? ELSE ? END - ? FROM t");
  EXPECT_EQ(*ToTemplate("SELECT NULL - 1"), "SELECT NULL - ?");
  EXPECT_EQ(*ToTemplate("SELECT key - 1, index + 2, min - 3 FROM t"),
            "SELECT KEY - ?, INDEX + ?, MIN - ? FROM t");
  // The keywords that open an operand still hand the sign to the number.
  EXPECT_EQ(*ToTemplate("SELECT CASE WHEN a = -1 THEN -1 ELSE -2 END FROM t"),
            "SELECT CASE WHEN a = ? THEN ? ELSE ? END FROM t");
  EXPECT_EQ(*ToTemplate("SELECT * FROM t LIMIT -1 OFFSET +2"),
            "SELECT * FROM t LIMIT ? OFFSET ?");
}

TEST(TokenizerTest, SignStaysItsOwnToken) {
  // Tokenize keeps literals, so it keeps their signs apart too: dbsim reads
  // the sign itself.
  auto toks = Tokenize("SELECT * FROM t WHERE id = -5");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 9u);
  EXPECT_EQ((*toks)[7].type, TokenType::kOperator);
  EXPECT_EQ((*toks)[7].text, "-");
  EXPECT_EQ((*toks)[8].type, TokenType::kNumber);
  EXPECT_EQ((*toks)[8].text, "5");
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


// --- golden corpus (tests/sql_golden.txt; its header says how it was made) --

struct GoldenEntry {
  size_t line = 0;
  char kind = 'T';  // T template, E error message, S/B changed on purpose
  std::string sql;
  std::string expected;
};

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Undoes the corpus escapes: \\ \t \n \r and \xHH.
std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    char c = s[++i];
    if (c == 't') {
      out += '\t';
    } else if (c == 'n') {
      out += '\n';
    } else if (c == 'r') {
      out += '\r';
    } else if (c == 'x' && i + 2 < s.size() && HexDigit(s[i + 1]) >= 0 &&
               HexDigit(s[i + 2]) >= 0) {
      out += static_cast<char>(HexDigit(s[i + 1]) * 16 + HexDigit(s[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<GoldenEntry> LoadGolden() {
  std::vector<GoldenEntry> out;
  std::ifstream in(DBAUGUR_SQL_GOLDEN);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string_view> fields;
    std::string_view rest(line);
    for (size_t tab; (tab = rest.find('\t')) != std::string_view::npos;) {
      fields.push_back(rest.substr(0, tab));
      rest.remove_prefix(tab + 1);
    }
    fields.push_back(rest);
    GoldenEntry e;
    e.line = line_no;
    if (fields.size() < 4 || fields[0].size() != 1 || fields[1] != "-") {
      ADD_FAILURE() << "malformed golden line " << line_no;
      continue;
    }
    e.kind = fields[0][0];
    e.sql = Unescape(fields[2]);
    e.expected = Unescape(fields[3]);
    out.push_back(std::move(e));
  }
  return out;
}

TEST(GoldenCorpusTest, EveryEntryTemplatesByteForByte) {
  const std::vector<GoldenEntry> corpus = LoadGolden();
  ASSERT_EQ(corpus.size(), 2402u) << "golden corpus missing or truncated";
  size_t mismatches = 0;
  for (const GoldenEntry& e : corpus) {
    auto t = ToTemplate(e.sql);
    std::string got = t.ok() ? *t : t.status().message();
    bool match = (e.kind == 'E') != t.ok() && got == e.expected;
    if (!match && ++mismatches <= 20) {
      ADD_FAILURE() << "sql_golden.txt line " << e.line << ": expected "
                    << (e.kind == 'E' ? "error" : "template") << " \""
                    << e.expected << "\", got "
                    << (t.ok() ? "template" : "error") << " \"" << got << "\"";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(GoldenCorpusTest, TokenizeRejectsWithTheTemplatersMessage) {
  size_t mismatches = 0;
  for (const GoldenEntry& e : LoadGolden()) {
    auto toks = Tokenize(e.sql);
    // "empty statement" is the templater's own verdict on zero tokens.
    bool match;
    if (e.kind != 'E') {
      match = toks.ok();
    } else if (e.expected == "empty statement") {
      match = toks.ok() && toks->empty();
    } else {
      match = !toks.ok() && toks.status().message() == e.expected;
    }
    if (!match && ++mismatches <= 20) {
      ADD_FAILURE() << "sql_golden.txt line " << e.line;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(GoldenCorpusTest, RegistryAssignsIdsInFirstSeenOrder) {
  TemplateRegistry reg;
  std::map<std::string, size_t> ids;
  std::vector<int64_t> counts;
  for (const GoldenEntry& e : LoadGolden()) {
    auto id = reg.Record(e.sql);
    if (e.kind == 'E') {
      EXPECT_FALSE(id.ok()) << "sql_golden.txt line " << e.line;
      continue;
    }
    auto [it, inserted] = ids.try_emplace(e.expected, ids.size());
    if (inserted) counts.push_back(0);
    ++counts[it->second];
    ASSERT_TRUE(id.ok()) << "sql_golden.txt line " << e.line;
    EXPECT_EQ(*id, it->second) << "sql_golden.txt line " << e.line;
  }
  ASSERT_EQ(reg.size(), ids.size());
  for (const auto& [text, id] : ids) {
    EXPECT_EQ(reg.template_text(id), text);
    EXPECT_EQ(reg.count(id), counts[id]);
    auto found = reg.Lookup(text);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, id);
  }
}

}  // namespace
}  // namespace dbaugur::sql
