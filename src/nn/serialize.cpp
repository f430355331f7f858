#include "nn/serialize.h"

#include <cstring>

namespace dbaugur::nn {

namespace {
constexpr uint32_t kMagicF64 = 0xDBA6A0F2;

void PutU32(std::vector<uint8_t>* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) buf->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

bool GetU32(const std::vector<uint8_t>& buf, size_t* pos, uint32_t* v) {
  if (*pos + 4 > buf.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(buf[*pos + static_cast<size_t>(i)]) << (8 * i);
  }
  *pos += 4;
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeParamsF64(const std::vector<Param>& params) {
  std::vector<uint8_t> buf;
  PutU32(&buf, kMagicF64);
  PutU32(&buf, static_cast<uint32_t>(params.size()));
  for (const Param& p : params) {
    PutU32(&buf, static_cast<uint32_t>(p.value->rows()));
    PutU32(&buf, static_cast<uint32_t>(p.value->cols()));
    for (size_t i = 0; i < p.value->size(); ++i) {
      double d = p.value->data()[i];
      uint8_t bytes[8];
      std::memcpy(bytes, &d, 8);
      buf.insert(buf.end(), bytes, bytes + 8);
    }
  }
  return buf;
}

Status DeserializeParams(const std::vector<uint8_t>& buffer,
                         std::vector<Param>& params) {
  size_t pos = 0;
  uint32_t magic = 0, count = 0;
  if (!GetU32(buffer, &pos, &magic) || magic != kMagicF64) {
    return Status::InvalidArgument("bad magic in parameter buffer");
  }
  if (!GetU32(buffer, &pos, &count) || count != params.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  // Check every header, shape and length before writing any value, so a
  // rejected buffer leaves every parameter as it was.
  const size_t first_tensor = pos;
  for (const Param& p : params) {
    uint32_t rows = 0, cols = 0;
    if (!GetU32(buffer, &pos, &rows) || !GetU32(buffer, &pos, &cols)) {
      return Status::InvalidArgument("truncated parameter header");
    }
    if (rows != p.value->rows() || cols != p.value->cols()) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    size_t n = static_cast<size_t>(rows) * cols;
    if (pos + 8 * n > buffer.size()) {
      return Status::InvalidArgument("truncated parameter data");
    }
    pos += 8 * n;
  }
  pos = first_tensor;
  for (Param& p : params) {
    pos += 8;  // rows and cols, checked above
    for (size_t i = 0; i < p.value->size(); ++i) {
      double d;
      std::memcpy(&d, &buffer[pos], 8);
      p.value->data()[i] = d;
      pos += 8;
    }
  }
  return Status::OK();
}

int64_t StorageBytes(const std::vector<Param>& params) {
  int64_t bytes = 8;  // magic + count
  for (const Param& p : params) {
    bytes += 8 + 4 * static_cast<int64_t>(p.value->size());
  }
  return bytes;
}

}  // namespace dbaugur::nn
