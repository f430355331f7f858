#include "sql/templater.h"

#include <algorithm>

namespace dbaugur::sql {

namespace {

bool IsValueToken(const Token& t) {
  return t.type == TokenType::kNumber || t.type == TokenType::kString;
}

/// Literals -> '?' placeholders.
void ReplaceLiterals(std::vector<Token>* tokens) {
  for (Token& t : *tokens) {
    if (IsValueToken(t)) t = {TokenType::kPlaceholder, "?"};
  }
}

/// IN ( ?, ?, ? ) -> IN (?).
void CollapseInLists(std::vector<Token>* tokens) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < tokens->size()) {
    const Token& t = (*tokens)[i];
    if (t.type == TokenType::kKeyword && t.text == "IN" &&
        i + 1 < tokens->size() && (*tokens)[i + 1].text == "(") {
      // Check the parenthesized list is placeholders/commas only.
      size_t j = i + 2;
      bool all_placeholders = true;
      while (j < tokens->size() && (*tokens)[j].text != ")") {
        const Token& inner = (*tokens)[j];
        if (!(inner.type == TokenType::kPlaceholder || inner.text == ",")) {
          all_placeholders = false;
          break;
        }
        ++j;
      }
      if (all_placeholders && j < tokens->size()) {
        out.push_back(t);
        out.push_back({TokenType::kPunct, "("});
        out.push_back({TokenType::kPlaceholder, "?"});
        out.push_back({TokenType::kPunct, ")"});
        i = j + 1;
        continue;
      }
    }
    out.push_back(t);
    ++i;
  }
  *tokens = std::move(out);
}

const std::string& MirrorOp(const std::string& op) {
  static const std::map<std::string, std::string> kMirror = {
      {"<", ">"}, {">", "<"}, {"<=", ">="}, {">=", "<="},
      {"=", "="}, {"<>", "<>"}, {"!=", "!="}};
  auto it = kMirror.find(op);
  static const std::string kEmpty;
  return it == kMirror.end() ? kEmpty : it->second;
}

bool IsOperand(const Token& t) {
  return t.type == TokenType::kIdentifier || t.type == TokenType::kPlaceholder;
}

/// Puts every simple comparison `X op Y` into canonical operand order:
/// identifier before placeholder; two identifiers sorted lexicographically
/// when the operator is symmetric (=, <>, !=).
void CanonicalizeComparisons(std::vector<Token>* tokens) {
  for (size_t i = 0; i + 2 < tokens->size(); ++i) {
    Token& lhs = (*tokens)[i];
    Token& op = (*tokens)[i + 1];
    Token& rhs = (*tokens)[i + 2];
    if (op.type != TokenType::kOperator || MirrorOp(op.text).empty()) continue;
    if (!IsOperand(lhs) || !IsOperand(rhs)) continue;
    // Ensure the token before lhs doesn't make this a non-comparison context
    // (e.g. arithmetic chains) — a preceding operand or operator means lhs is
    // part of a larger expression; skip those conservatively.
    if (i > 0) {
      const Token& prev = (*tokens)[i - 1];
      if (IsOperand(prev) || prev.type == TokenType::kOperator) continue;
    }
    bool swap = false;
    if (lhs.type == TokenType::kPlaceholder &&
        rhs.type == TokenType::kIdentifier) {
      swap = true;  // "? < a" -> "a > ?"
    } else if (lhs.type == TokenType::kIdentifier &&
               rhs.type == TokenType::kIdentifier &&
               (op.text == "=" || op.text == "<>" || op.text == "!=") &&
               rhs.text < lhs.text) {
      swap = true;  // symmetric operator: order operands
    }
    if (swap) {
      std::swap(lhs, rhs);
      op.text = MirrorOp(op.text);
    }
  }
}

/// Sorts a top-level comma-separated list of single identifiers between
/// SELECT [DISTINCT] and FROM.
void CanonicalizeSelectList(std::vector<Token>* tokens) {
  size_t sel = tokens->size();
  for (size_t i = 0; i < tokens->size(); ++i) {
    if ((*tokens)[i].type == TokenType::kKeyword && (*tokens)[i].text == "SELECT") {
      sel = i;
      break;
    }
  }
  if (sel == tokens->size()) return;
  size_t begin = sel + 1;
  if (begin < tokens->size() && (*tokens)[begin].type == TokenType::kKeyword &&
      (*tokens)[begin].text == "DISTINCT") {
    ++begin;
  }
  size_t end = begin;
  while (end < tokens->size() && !((*tokens)[end].type == TokenType::kKeyword &&
                                   (*tokens)[end].text == "FROM")) {
    ++end;
  }
  if (end == tokens->size() || end == begin) return;
  // Must be identifier (, identifier)* exactly.
  std::vector<std::string> cols;
  for (size_t i = begin; i < end; ++i) {
    bool expect_ident = ((i - begin) % 2 == 0);
    const Token& t = (*tokens)[i];
    if (expect_ident) {
      if (t.type != TokenType::kIdentifier) return;
      cols.push_back(t.text);
    } else if (t.text != ",") {
      return;
    }
  }
  if ((end - begin) % 2 == 0) return;  // trailing comma shape mismatch
  std::sort(cols.begin(), cols.end());
  size_t k = 0;
  for (size_t i = begin; i < end; ++i) {
    if ((i - begin) % 2 == 0) (*tokens)[i].text = cols[k++];
  }
}

/// Reorders `FROM t1 JOIN t2 ON ...` (plain/INNER joins only) so the smaller
/// table name comes first; the ON comparison is canonicalized separately.
void CanonicalizeJoinOrder(std::vector<Token>* tokens) {
  for (size_t i = 0; i + 3 < tokens->size(); ++i) {
    const Token& t = (*tokens)[i];
    if (!(t.type == TokenType::kKeyword && t.text == "FROM")) continue;
    size_t left_pos = i + 1;
    if (left_pos >= tokens->size() ||
        (*tokens)[left_pos].type != TokenType::kIdentifier) {
      continue;
    }
    size_t join_pos = left_pos + 1;
    if (join_pos < tokens->size() && (*tokens)[join_pos].type == TokenType::kKeyword &&
        (*tokens)[join_pos].text == "INNER") {
      ++join_pos;
    }
    if (join_pos >= tokens->size() ||
        !((*tokens)[join_pos].type == TokenType::kKeyword &&
          (*tokens)[join_pos].text == "JOIN")) {
      continue;
    }
    size_t right_pos = join_pos + 1;
    if (right_pos >= tokens->size() ||
        (*tokens)[right_pos].type != TokenType::kIdentifier) {
      continue;
    }
    Token& left = (*tokens)[left_pos];
    Token& right = (*tokens)[right_pos];
    if (right.text < left.text) std::swap(left.text, right.text);
  }
}

/// Sorts top-level AND-connected conditions inside the WHERE clause. Applies
/// only when every top-level connective is AND (mixing with OR would change
/// semantics under naive reordering).
void CanonicalizeWhereConjunction(std::vector<Token>* tokens) {
  size_t where = tokens->size();
  for (size_t i = 0; i < tokens->size(); ++i) {
    if ((*tokens)[i].type == TokenType::kKeyword && (*tokens)[i].text == "WHERE") {
      where = i;
      break;
    }
  }
  if (where == tokens->size()) return;
  size_t begin = where + 1;
  size_t end = begin;
  int depth = 0;
  auto is_clause_end = [](const Token& t) {
    return t.type == TokenType::kKeyword &&
           (t.text == "GROUP" || t.text == "ORDER" || t.text == "LIMIT" ||
            t.text == "HAVING" || t.text == "UNION");
  };
  while (end < tokens->size()) {
    const Token& t = (*tokens)[end];
    if (t.text == "(") ++depth;
    if (t.text == ")") --depth;
    if (t.text == ";" && depth == 0) break;
    if (depth == 0 && is_clause_end(t)) break;
    ++end;
  }
  // Split into AND-separated spans at depth 0; bail on OR/NOT at top level.
  std::vector<std::vector<Token>> terms;
  std::vector<Token> cur;
  depth = 0;
  for (size_t i = begin; i < end; ++i) {
    const Token& t = (*tokens)[i];
    if (t.text == "(") ++depth;
    if (t.text == ")") --depth;
    if (depth == 0 && t.type == TokenType::kKeyword && t.text == "OR") return;
    if (depth == 0 && t.type == TokenType::kKeyword && t.text == "AND") {
      if (cur.empty()) return;  // malformed
      terms.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur.push_back(t);
  }
  if (cur.empty()) return;
  terms.push_back(std::move(cur));
  if (terms.size() < 2) return;
  std::sort(terms.begin(), terms.end(),
            [](const std::vector<Token>& a, const std::vector<Token>& b) {
              return Render(a) < Render(b);
            });
  std::vector<Token> rebuilt;
  for (size_t k = 0; k < terms.size(); ++k) {
    if (k > 0) rebuilt.push_back({TokenType::kKeyword, "AND"});
    for (auto& tk : terms[k]) rebuilt.push_back(tk);
  }
  tokens->erase(tokens->begin() + static_cast<ptrdiff_t>(begin),
                tokens->begin() + static_cast<ptrdiff_t>(end));
  tokens->insert(tokens->begin() + static_cast<ptrdiff_t>(begin),
                 rebuilt.begin(), rebuilt.end());
}

}  // namespace

StatusOr<std::string> ToTemplate(const std::string& sql,
                                 const TemplateOptions& opts) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  if (tokens->empty()) return Status::InvalidArgument("empty statement");
  ReplaceLiterals(&tokens.value());
  if (opts.collapse_in_lists) CollapseInLists(&tokens.value());
  if (opts.canonicalize_semantics) {
    CanonicalizeComparisons(&tokens.value());
    CanonicalizeSelectList(&tokens.value());
    CanonicalizeJoinOrder(&tokens.value());
    CanonicalizeWhereConjunction(&tokens.value());
  }
  // Drop a trailing semicolon so "...;" and "..." unify.
  if (!tokens->empty() && tokens->back().text == ";") tokens->pop_back();
  return Render(*tokens);
}

uint64_t Fingerprint(const std::string& tmpl) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : tmpl) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

StatusOr<size_t> TemplateRegistry::Record(const std::string& sql) {
  auto tmpl = ToTemplate(sql, opts_);
  if (!tmpl.ok()) return tmpl.status();
  auto [it, inserted] = index_.try_emplace(*tmpl, templates_.size());
  if (inserted) {
    templates_.push_back(*tmpl);
    counts_.push_back(0);
  }
  ++counts_[it->second];
  return it->second;
}

StatusOr<size_t> TemplateRegistry::Lookup(const std::string& tmpl) const {
  auto it = index_.find(tmpl);
  if (it == index_.end()) return Status::NotFound("template not registered");
  return it->second;
}

}  // namespace dbaugur::sql
