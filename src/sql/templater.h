// SQL2Template (paper §IV-A): converts raw SQL statements into templates by
// (1) normalizing format (spacing, case, bracket placement), (2) replacing
// literals with placeholders, and (3) semantic-equivalence canonicalization
// so statements like "SELECT a, b FROM foo" / "SELECT b, a FROM foo" and
// "A JOIN B ON A.id=B.id" / "B JOIN A ON B.id=A.id" map to one template.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/tokenizer.h"

namespace dbaugur::sql {

/// Template extraction knobs.
struct TemplateOptions {
  bool collapse_in_lists = true;       ///< IN (?, ?, ?) -> IN (?)
  bool canonicalize_semantics = true;  ///< column order, commutativity, joins
};

/// Converts one SQL statement to its template string.
StatusOr<std::string> ToTemplate(const std::string& sql,
                                 const TemplateOptions& opts = TemplateOptions());

/// Stable 64-bit fingerprint of a template string (FNV-1a).
uint64_t Fingerprint(const std::string& tmpl);

/// Registry assigning dense ids to templates and counting occurrences.
class TemplateRegistry {
 public:
  explicit TemplateRegistry(const TemplateOptions& opts = TemplateOptions())
      : opts_(opts) {}

  /// Templates the statement and records one occurrence; returns the
  /// template's dense id.
  StatusOr<size_t> Record(const std::string& sql);

  /// Id for an exact template string, without counting (NotFound if absent).
  StatusOr<size_t> Lookup(const std::string& tmpl) const;

  size_t size() const { return templates_.size(); }
  const std::string& template_text(size_t id) const { return templates_[id]; }
  int64_t count(size_t id) const { return counts_[id]; }

 private:
  TemplateOptions opts_;
  std::map<std::string, size_t> index_;
  std::vector<std::string> templates_;
  std::vector<int64_t> counts_;
};

}  // namespace dbaugur::sql
