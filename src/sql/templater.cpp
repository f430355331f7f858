#include "sql/templater.h"

#include <algorithm>

#include "common/contracts.h"

namespace dbaugur::sql {

namespace {

bool IsPunct(const TokenView& t, char c) {
  return t.type == TokenType::kPunct && t.text[0] == c;
}

bool IsKeyword(const TokenView& t, std::string_view kw) {
  return t.type == TokenType::kKeyword && t.text == kw;
}

/// Appends tokens [first, first + n) single-spaced, with no space before
/// a closing bracket, comma or semicolon and none after an opening bracket.
void AppendRendered(const TokenView* first, size_t n, std::string* out) {
  for (size_t i = 0; i < n; ++i) {
    const TokenView& t = first[i];
    if (i > 0 && !IsPunct(first[i - 1], '(') &&
        !(t.type == TokenType::kPunct && t.text[0] != '(')) {
      out->push_back(' ');
    }
    out->append(t.text);
  }
}

/// The operator with its operands swapped, or an empty view when `op` is
/// not a comparison.
std::string_view MirrorOp(std::string_view op) {
  if (op == "<") return ">";
  if (op == ">") return "<";
  if (op == "<=") return ">=";
  if (op == ">=") return "<=";
  if (op == "=" || op == "<>" || op == "!=") return op;
  return {};
}

bool IsOperand(const TokenView& t) {
  return t.type == TokenType::kIdentifier || t.type == TokenType::kPlaceholder;
}

bool IsClauseEnd(const TokenView& t) {
  return t.type == TokenType::kKeyword &&
         (t.text == "GROUP" || t.text == "ORDER" || t.text == "LIMIT" ||
          t.text == "HAVING" || t.text == "UNION");
}

}  // namespace

/// IN ( ?, ?, ? ) -> IN (?), compacting the vector in place.
void Templater::CollapseInLists() {
  std::vector<TokenView>& t = tokens_;
  size_t w = 0, i = 0;
  while (i < t.size()) {
    if (IsKeyword(t[i], "IN") && i + 1 < t.size() && IsPunct(t[i + 1], '(')) {
      // Check the parenthesized list is placeholders/commas only.
      size_t j = i + 2;
      bool all_placeholders = true;
      while (j < t.size() && !IsPunct(t[j], ')')) {
        if (t[j].type != TokenType::kPlaceholder && !IsPunct(t[j], ',')) {
          all_placeholders = false;
          break;
        }
        ++j;
      }
      if (all_placeholders && j < t.size()) {
        // Four tokens replace j - i + 1 >= 3. Only an empty list grows, and
        // with nothing compacted yet it would overwrite the unread token
        // after its ')': make room first.
        if (j == i + 2 && w == i) {
          t.insert(t.begin() + static_cast<ptrdiff_t>(j),
                   {TokenType::kPlaceholder, "?"});
          ++j;
        }
        t[w] = t[i];
        t[w + 1] = t[i + 1];
        t[w + 2] = {TokenType::kPlaceholder, "?"};
        t[w + 3] = t[j];
        w += 4;
        i = j + 1;
        continue;
      }
    }
    t[w++] = t[i++];
  }
  t.resize(w);
}

/// Puts every simple comparison `X op Y` into canonical operand order:
/// identifier before placeholder; two identifiers sorted lexicographically
/// when the operator is symmetric (=, <>, !=).
void Templater::CanonicalizeComparisons() {
  std::vector<TokenView>& t = tokens_;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    TokenView& lhs = t[i];
    TokenView& op = t[i + 1];
    TokenView& rhs = t[i + 2];
    if (op.type != TokenType::kOperator) continue;
    const std::string_view mirrored = MirrorOp(op.text);
    if (mirrored.empty()) continue;
    if (!IsOperand(lhs) || !IsOperand(rhs)) continue;
    // Ensure the token before lhs doesn't make this a non-comparison context
    // (e.g. arithmetic chains) — a preceding operand or operator means lhs is
    // part of a larger expression; skip those conservatively.
    if (i > 0 &&
        (IsOperand(t[i - 1]) || t[i - 1].type == TokenType::kOperator)) {
      continue;
    }
    bool swap = false;
    if (lhs.type == TokenType::kPlaceholder &&
        rhs.type == TokenType::kIdentifier) {
      swap = true;  // "? < a" -> "a > ?"
    } else if (lhs.type == TokenType::kIdentifier &&
               rhs.type == TokenType::kIdentifier && mirrored == op.text &&
               rhs.text < lhs.text) {
      swap = true;  // symmetric operator: order operands
    }
    if (swap) {
      std::swap(lhs, rhs);
      op.text = mirrored;
    }
  }
}

/// Sorts a top-level comma-separated list of single identifiers between
/// SELECT [DISTINCT] and FROM.
void Templater::CanonicalizeSelectList() {
  std::vector<TokenView>& t = tokens_;
  auto sel = std::find_if(t.begin(), t.end(), [](const TokenView& x) {
    return IsKeyword(x, "SELECT");
  });
  if (sel == t.end()) return;
  size_t begin = static_cast<size_t>(sel - t.begin()) + 1;
  if (begin < t.size() && IsKeyword(t[begin], "DISTINCT")) ++begin;
  size_t end = begin;
  while (end < t.size() && !IsKeyword(t[end], "FROM")) ++end;
  if (end == t.size() || end == begin) return;
  if ((end - begin) % 2 == 0) return;  // trailing comma shape mismatch
  // Must be identifier (, identifier)* exactly.
  columns_.clear();
  for (size_t i = begin; i < end; ++i) {
    if ((i - begin) % 2 == 0) {
      if (t[i].type != TokenType::kIdentifier) return;
      columns_.push_back(t[i].text);
    } else if (!IsPunct(t[i], ',')) {
      return;
    }
  }
  std::sort(columns_.begin(), columns_.end());
  for (size_t k = 0; k < columns_.size(); ++k) {
    t[begin + 2 * k].text = columns_[k];
  }
}

/// Reorders `FROM t1 JOIN t2 ON ...` (plain/INNER joins only) so the smaller
/// table name comes first; the ON comparison is canonicalized separately.
void Templater::CanonicalizeJoinOrder() {
  std::vector<TokenView>& t = tokens_;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!IsKeyword(t[i], "FROM")) continue;
    const size_t left = i + 1;
    if (t[left].type != TokenType::kIdentifier) continue;
    size_t join = left + 1;
    if (IsKeyword(t[join], "INNER")) ++join;
    if (join >= t.size() || !IsKeyword(t[join], "JOIN")) continue;
    const size_t right = join + 1;
    if (right >= t.size() || t[right].type != TokenType::kIdentifier) continue;
    if (t[right].text < t[left].text) std::swap(t[left].text, t[right].text);
  }
}

/// Sorts top-level AND-connected conditions inside the WHERE clause. Applies
/// only when every top-level connective is AND (mixing with OR would change
/// semantics under naive reordering). Each conjunct is rendered once, and
/// the conjuncts are sorted by their renderings.
void Templater::CanonicalizeWhereConjunction() {
  std::vector<TokenView>& t = tokens_;
  auto where = std::find_if(t.begin(), t.end(), [](const TokenView& x) {
    return IsKeyword(x, "WHERE");
  });
  if (where == t.end()) return;
  const size_t begin = static_cast<size_t>(where - t.begin()) + 1;
  size_t end = begin;
  int depth = 0;
  for (; end < t.size(); ++end) {
    if (IsPunct(t[end], '(')) ++depth;
    if (IsPunct(t[end], ')')) --depth;
    if (depth == 0 && (IsPunct(t[end], ';') || IsClauseEnd(t[end]))) break;
  }
  // Split into AND-separated spans at depth 0; bail on OR at top level. The
  // first AND after a BETWEEN (or NOT BETWEEN) joins its bounds, so it stays
  // inside that conjunct.
  terms_.clear();
  size_t term_begin = begin;
  depth = 0;
  bool in_between = false;
  for (size_t i = begin; i < end; ++i) {
    if (IsPunct(t[i], '(')) ++depth;
    if (IsPunct(t[i], ')')) --depth;
    if (depth != 0) continue;
    if (IsKeyword(t[i], "OR")) return;
    if (IsKeyword(t[i], "BETWEEN")) in_between = true;
    if (IsKeyword(t[i], "AND")) {
      if (in_between) {
        in_between = false;
        continue;
      }
      if (i == term_begin) return;  // malformed
      terms_.push_back({term_begin, i});
      term_begin = i + 1;
    }
  }
  if (term_begin == end) return;
  terms_.push_back({term_begin, end});
  if (terms_.size() < 2) return;
  keys_.clear();
  for (Term& term : terms_) {
    term.key_at = keys_.size();
    AppendRendered(&t[term.begin], term.end - term.begin, &keys_);
    term.key_len = keys_.size() - term.key_at;
  }
  const std::string_view keys(keys_);
  std::sort(terms_.begin(), terms_.end(), [keys](const Term& a, const Term& b) {
    return keys.substr(a.key_at, a.key_len) < keys.substr(b.key_at, b.key_len);
  });
  // The sorted conjuncts fill exactly the span they came from.
  spill_.assign(t.begin() + static_cast<ptrdiff_t>(begin),
                t.begin() + static_cast<ptrdiff_t>(end));
  size_t w = begin;
  for (size_t k = 0; k < terms_.size(); ++k) {
    if (k > 0) t[w++] = {TokenType::kKeyword, "AND"};
    for (size_t i = terms_[k].begin; i < terms_[k].end; ++i) {
      t[w++] = spill_[i - begin];
    }
  }
  DBAUGUR_DCHECK(w == end, "WHERE rebuild wrote ", w - begin, " of ",
                 end - begin, " tokens");
}

StatusOr<std::string_view> Templater::Apply(std::string_view sql) {
  DBAUGUR_RETURN_IF_ERROR(
      Lex(sql, /*literals_as_placeholders=*/true, &tokens_, &folded_));
  if (tokens_.empty()) return Status::InvalidArgument("empty statement");
  CollapseInLists();
  CanonicalizeComparisons();
  CanonicalizeSelectList();
  CanonicalizeJoinOrder();
  CanonicalizeWhereConjunction();
  // Drop a trailing semicolon so "...;" and "..." unify.
  if (!tokens_.empty() && IsPunct(tokens_.back(), ';')) tokens_.pop_back();
  text_.clear();
  AppendRendered(tokens_.data(), tokens_.size(), &text_);
  return std::string_view(text_);
}

StatusOr<std::string> ToTemplate(const std::string& sql) {
  Templater templater;
  auto tmpl = templater.Apply(sql);
  if (!tmpl.ok()) return tmpl.status();
  return std::string(*tmpl);
}

uint64_t Fingerprint(const std::string& tmpl) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : tmpl) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

StatusOr<size_t> TemplateRegistry::Record(std::string_view sql) {
  auto tmpl = templater_.Apply(sql);
  if (!tmpl.ok()) return tmpl.status();
  auto it = index_.find(*tmpl);
  if (it == index_.end()) {
    it = index_.emplace(std::string(*tmpl), templates_.size()).first;
    templates_.emplace_back(*tmpl);
    counts_.push_back(0);
  }
  ++counts_[it->second];
  return it->second;
}

StatusOr<size_t> TemplateRegistry::Lookup(std::string_view tmpl) const {
  auto it = index_.find(tmpl);
  if (it == index_.end()) return Status::NotFound("template not registered");
  return it->second;
}

}  // namespace dbaugur::sql
