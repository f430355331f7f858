#include "report.h"

#include <cmath>
#include <cstdio>

#include "sysinfo.h"

namespace perfbench {

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}
Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}
Json Json::Num(double v) {
  Json j;
  j.kind_ = Kind::kNum;
  j.num_ = v;
  return j;
}
Json Json::Int(int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}
Json Json::Str(std::string v) {
  Json j;
  j.kind_ = Kind::kStr;
  j.str_ = std::move(v);
  return j;
}
Json Json::Bool(bool v) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

Json& Json::Set(const std::string& key, Json v) {
  for (auto& m : members_) {
    if (m.first == key) {
      m.second = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::Push(Json v) {
  items_.push_back(std::move(v));
  return *this;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {
void Escape(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}
}  // namespace

void Json::DumpTo(std::string* out) const {
  char buf[40];
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kNum:
      if (!std::isfinite(num_)) {
        *out += "null";
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
        *out += buf;
      }
      break;
    case Kind::kInt:
      *out += std::to_string(int_);
      break;
    case Kind::kStr:
      Escape(str_, out);
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& m : members_) {
        if (!first) out->push_back(',');
        first = false;
        Escape(m.first, out);
        out->push_back(':');
        m.second.DumpTo(out);
      }
      out->push_back('}');
      break;
    }
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        items_[i].DumpTo(out);
      }
      out->push_back(']');
      break;
    }
  }
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent, int64_t cycle,
                            int64_t shard) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.cycle = cycle;
  s.shard = shard;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int64_t>(spans_.size());
  s.begin_ns = NowNs();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
