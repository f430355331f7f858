// Result output (a small ordered JSON tree) and the traced run's in-memory
// span recorder.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Ordered JSON value: keys print in insertion order; doubles print with
/// all 17 significant digits.
class Json {
 public:
  static Json Object();
  static Json Array();
  static Json Num(double v);
  static Json Int(int64_t v);
  static Json Str(std::string v);
  static Json Bool(bool v);

  Json& Set(const std::string& key, Json v);
  Json& Push(Json v);
  std::string Dump() const;

 private:
  enum class Kind { kNull, kNum, kInt, kStr, kBool, kObject, kArray };
  void DumpTo(std::string* out) const;

  Kind kind_ = Kind::kNull;
  double num_ = 0.0;
  int64_t int_ = 0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// Thread-safe in-memory span store. Disabled recorders hand out id -1 and
/// record nothing, so untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  int64_t Begin(const char* name, int64_t parent, int64_t cycle, int64_t shard);
  void End(int64_t id);
  std::vector<Span> Snapshot() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t parent,
             int64_t cycle = -1, int64_t shard = -1)
      : rec_(rec), id_(rec->Begin(name, parent, cycle, shard)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

}  // namespace perfbench
