// SQL2Template (paper §IV-A): converts raw SQL statements into templates by
// (1) normalizing format (spacing, case, bracket placement), (2) replacing
// literals with placeholders, and (3) semantic-equivalence canonicalization
// so statements like "SELECT a, b FROM foo" / "SELECT b, a FROM foo" and
// "A JOIN B ON A.id=B.id" / "B JOIN A ON B.id=A.id" map to one template.
//
// Each statement is lexed once into token views whose literals are already
// placeholders; the IN-list collapse and the canonicalization passes edit
// that vector in place, and the template is rendered into a reused buffer.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sql/tokenizer.h"

namespace dbaugur::sql {

/// Templates statements one at a time in buffers it keeps: once they have
/// grown to the longest statement seen, a call allocates nothing. No view
/// survives from one call to the next, so copies and moves are safe.
class Templater {
 public:
  /// The statement's template: IN lists collapse to IN (?), and the
  /// comparison, select-list, join-order and WHERE-conjunct passes
  /// canonicalize it. The view points into this Templater and is
  /// valid until its next Apply.
  StatusOr<std::string_view> Apply(std::string_view sql);

 private:
  // One top-level WHERE conjunct: tokens [begin, end) and its rendering at
  // keys_[key_at, key_at + key_len).
  struct Term {
    size_t begin = 0, end = 0;
    size_t key_at = 0, key_len = 0;
  };

  void CollapseInLists();
  void CanonicalizeComparisons();
  void CanonicalizeSelectList();
  void CanonicalizeJoinOrder();
  void CanonicalizeWhereConjunction();

  std::vector<TokenView> tokens_;
  std::string folded_;                     ///< lowercased identifiers
  std::vector<std::string_view> columns_;  ///< select list being sorted
  std::vector<Term> terms_;                ///< WHERE conjuncts being sorted
  std::string keys_;                       ///< each conjunct rendered once
  std::vector<TokenView> spill_;           ///< WHERE clause while rebuilt
  std::string text_;                       ///< the rendered template
};

/// Converts one SQL statement to its template string.
StatusOr<std::string> ToTemplate(const std::string& sql);

/// Stable 64-bit fingerprint of a template string (FNV-1a).
uint64_t Fingerprint(const std::string& tmpl);

/// Registry assigning dense ids to templates and counting occurrences.
class TemplateRegistry {
 public:
  /// Templates the statement and records one occurrence; returns the
  /// template's dense id. Recording a statement whose template is already
  /// registered allocates nothing once the templater's buffers have grown.
  StatusOr<size_t> Record(std::string_view sql);

  /// Id for an exact template string, without counting (NotFound if absent).
  StatusOr<size_t> Lookup(std::string_view tmpl) const;

  size_t size() const { return templates_.size(); }
  const std::string& template_text(size_t id) const { return templates_[id]; }
  int64_t count(size_t id) const { return counts_[id]; }

 private:
  // Hashes stored strings and probing views alike, so a lookup never
  // builds a string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Templater templater_;
  std::unordered_map<std::string, size_t, ViewHash, std::equal_to<>> index_;
  std::vector<std::string> templates_;
  std::vector<int64_t> counts_;
};

}  // namespace dbaugur::sql
