#include "sql/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>

namespace dbaugur::sql {

namespace {

// Sorted, so the keywords sharing a first letter are contiguous; the views
// Lex hands out for keywords point at these literals.
constexpr std::string_view kKeywords[] = {
    "ALL", "ALTER", "AND", "AS", "ASC", "AVG", "BEGIN", "BETWEEN", "BY",
    "CASE", "COMMIT", "COUNT", "CREATE", "CROSS", "DELETE", "DESC", "DISTINCT",
    "DROP", "ELSE", "END", "EXISTS", "FOREIGN", "FROM", "FULL", "GROUP",
    "HAVING", "IN", "INDEX", "INNER", "INSERT", "INTO", "IS", "JOIN", "KEY",
    "LEFT", "LIKE", "LIMIT", "MAX", "MIN", "NOT", "NULL", "OFFSET", "ON", "OR",
    "ORDER", "OUTER", "PRIMARY", "REFERENCES", "RIGHT", "ROLLBACK", "SELECT",
    "SET", "SUM", "TABLE", "THEN", "TRANSACTION", "UNION", "UPDATE", "USING",
    "VALUES", "WHEN", "WHERE",
};
static_assert(std::is_sorted(std::begin(kKeywords), std::end(kKeywords)));

// [first, last) of the keywords starting with each letter A-Z. Scanning
// only a word's letter range is cheaper than a binary search over the whole
// table, which made templating a statement about 45% slower.
struct KeywordRange {
  uint8_t first = 0, last = 0;
};
constexpr std::array<KeywordRange, 26> MakeKeywordRanges() {
  std::array<KeywordRange, 26> r{};
  for (size_t k = 0; k < std::size(kKeywords); ++k) {
    KeywordRange& range = r[static_cast<size_t>(kKeywords[k][0] - 'A')];
    if (range.first == range.last) range.first = static_cast<uint8_t>(k);
    range.last = static_cast<uint8_t>(k + 1);
  }
  return r;
}
constexpr std::array<KeywordRange, 26> kKeywordRanges = MakeKeywordRanges();

// The keywords after which an operand starts, so a sign there belongs to the
// number that follows. END and NULL end an operand, and COUNT, KEY, MIN and
// the like can name a column: `count - 1` keeps its minus. Sorted.
constexpr std::string_view kOperandKeywords[] = {
    "ALL", "AND", "BETWEEN", "BY", "CASE", "DISTINCT", "ELSE", "HAVING", "IN",
    "LIKE", "LIMIT", "NOT", "OFFSET", "ON", "OR", "SELECT", "SET", "THEN",
    "VALUES", "WHEN", "WHERE",
};
static_assert(std::is_sorted(std::begin(kOperandKeywords),
                             std::end(kOperandKeywords)));

constexpr std::string_view kPlaceholderText = "?";

// Byte classes: whitespace, digits and letters as the C locale's isspace,
// isdigit and isalpha see them, then the operator and punctuation bytes.
enum : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kIdentStart = 4,
  kIdentChar = 8,
  kOperatorChar = 16,
  kPunctChar = 32,
};

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> c{};
  for (unsigned char ch : {' ', '\t', '\n', '\v', '\f', '\r'}) c[ch] = kSpace;
  for (int ch = '0'; ch <= '9'; ++ch) c[ch] = kDigit | kIdentChar;
  for (int ch = 'a'; ch <= 'z'; ++ch) {
    c[ch] = kIdentStart | kIdentChar;
    c[ch - 'a' + 'A'] = kIdentStart | kIdentChar;
  }
  c['_'] = kIdentStart | kIdentChar;
  c['.'] = kIdentChar;
  for (unsigned char ch : std::string_view("=<>+-*/%")) c[ch] = kOperatorChar;
  for (unsigned char ch : std::string_view("(),;")) c[ch] = kPunctChar;
  return c;
}
constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

bool Has(char c, uint8_t cls) {
  return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

char Upper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}
char Lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// The keyword `word` spells in any case, or an empty view.
std::string_view KeywordOf(std::string_view word) {
  const char first = Upper(word[0]);
  if (first < 'A' || first > 'Z') return {};
  const KeywordRange range = kKeywordRanges[static_cast<size_t>(first - 'A')];
  for (size_t k = range.first; k < range.last; ++k) {
    const std::string_view kw = kKeywords[k];
    if (kw.size() != word.size()) continue;
    size_t i = 1;
    while (i < kw.size() && Upper(word[i]) == kw[i]) ++i;
    if (i == kw.size()) return kw;
  }
  return {};
}

// Hex-escapes a byte for error messages so an embedded NUL / control byte /
// non-ASCII byte is never echoed raw into logs or test output.
std::string HexByte(unsigned char uc) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%02X", uc);
  return std::string(buf);
}

// True when the last token is a `-` or `+` that signs the number lexed next
// rather than joining two operands: it follows an operator, `(`, `,`, a
// keyword that opens an operand, or nothing.
bool EndsWithUnarySign(const std::vector<TokenView>& t) {
  if (t.empty()) return false;
  const TokenView& sign = t.back();
  if (sign.type != TokenType::kOperator ||
      (sign.text != "-" && sign.text != "+")) {
    return false;
  }
  if (t.size() == 1) return true;
  const TokenView& before = t[t.size() - 2];
  return before.type == TokenType::kOperator ||
         (before.type == TokenType::kKeyword &&
          std::binary_search(std::begin(kOperandKeywords),
                             std::end(kOperandKeywords), before.text)) ||
         (before.type == TokenType::kPunct &&
          (before.text == "(" || before.text == ","));
}

bool IsTwoCharOperator(char a, char b) {
  return (b == '=' && (a == '<' || a == '>' || a == '!' || a == ':')) ||
         (a == '<' && b == '>') || (a == '|' && b == '|');
}

}  // namespace

Status Lex(std::string_view sql, bool literals_as_placeholders,
           std::vector<TokenView>* out, std::string* folded) {
  out->clear();
  folded->clear();
  folded->reserve(sql.size());
  auto literal = [&](TokenType type, size_t start, size_t end) {
    if (literals_as_placeholders) {
      out->push_back({TokenType::kPlaceholder, kPlaceholderText});
    } else {
      out->push_back({type, sql.substr(start, end - start)});
    }
  };
  const size_t n = sql.size();
  size_t i = 0;
  while (i < n) {
    const char c = sql[i];
    if (Has(c, kSpace)) {
      ++i;
      continue;
    }
    // Control bytes (embedded NUL from a truncated write, terminal escapes)
    // are rejected outright; whitespace above already took \t \n \v \f \r.
    const unsigned char uc = static_cast<unsigned char>(c);
    if (uc < 0x20 || uc == 0x7F) {
      return Status::InvalidArgument("control character " + HexByte(uc) +
                                     " in SQL");
    }
    // Comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      const size_t nl = sql.find('\n', i);
      i = nl == std::string_view::npos ? n : nl;
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      const size_t end = sql.find("*/", i + 2);
      if (end == std::string_view::npos) {
        return Status::InvalidArgument("unterminated block comment");
      }
      i = end + 2;
      continue;
    }
    // String literals ('' escaping) — double quotes treated as quoted
    // identifiers but kept as string tokens for templating purposes.
    if (c == '\'' || c == '"') {
      const size_t start = i++;
      while (i < n) {
        if (sql[i] == '\0') {
          // A NUL can only come from a truncated/corrupted log line; letting
          // it live inside a token would silently poison every later string
          // comparison on the template.
          return Status::InvalidArgument("NUL byte inside string literal");
        }
        if (sql[i] == c) {
          if (i + 1 < n && sql[i + 1] == c) {
            i += 2;  // escaped quote
            continue;
          }
          break;
        }
        ++i;
      }
      if (i >= n) return Status::InvalidArgument("unterminated string literal");
      ++i;  // consume closing quote
      literal(TokenType::kString, start, i);
      continue;
    }
    // Numbers (integers, decimals, scientific).
    if (Has(c, kDigit) || (c == '.' && i + 1 < n && Has(sql[i + 1], kDigit))) {
      const size_t start = i;
      while (i < n && (Has(sql[i], kDigit) || sql[i] == '.')) ++i;
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        const size_t save = i++;
        if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
        if (i < n && Has(sql[i], kDigit)) {
          while (i < n && Has(sql[i], kDigit)) ++i;
        } else {
          i = save;  // bare 'e' belongs to a following identifier
        }
      }
      if (literals_as_placeholders && EndsWithUnarySign(*out)) out->pop_back();
      literal(TokenType::kNumber, start, i);
      continue;
    }
    // Identifiers / keywords (allow qualified names with dots).
    if (Has(c, kIdentStart)) {
      const size_t start = i;
      while (i < n && Has(sql[i], kIdentChar)) ++i;
      const std::string_view word = sql.substr(start, i - start);
      if (std::string_view kw = KeywordOf(word); !kw.empty()) {
        out->push_back({TokenType::kKeyword, kw});
        continue;
      }
      const size_t at = folded->size();
      for (char ch : word) folded->push_back(Lower(ch));
      out->push_back(
          {TokenType::kIdentifier, std::string_view(*folded).substr(at)});
      continue;
    }
    // Placeholders from templated statements.
    if (c == '?') {
      out->push_back({TokenType::kPlaceholder, kPlaceholderText});
      ++i;
      continue;
    }
    if (i + 1 < n && IsTwoCharOperator(c, sql[i + 1])) {
      out->push_back({TokenType::kOperator, sql.substr(i, 2)});
      i += 2;
      continue;
    }
    if (Has(c, kOperatorChar)) {
      out->push_back({TokenType::kOperator, sql.substr(i, 1)});
      ++i;
      continue;
    }
    if (Has(c, kPunctChar)) {
      out->push_back({TokenType::kPunct, sql.substr(i, 1)});
      ++i;
      continue;
    }
    if (uc >= 0x80) {
      return Status::InvalidArgument("unexpected byte " + HexByte(uc) +
                                     " in SQL");
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' in SQL");
  }
  return Status::OK();
}

StatusOr<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<TokenView> views;
  std::string folded;
  DBAUGUR_RETURN_IF_ERROR(
      Lex(sql, /*literals_as_placeholders=*/false, &views, &folded));
  std::vector<Token> out;
  out.reserve(views.size());
  for (const TokenView& v : views) out.push_back({v.type, std::string(v.text)});
  return out;
}

}  // namespace dbaugur::sql
