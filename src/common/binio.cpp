#include "common/binio.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.h"

namespace dbaugur {

void BufWriter::U32(uint32_t v) {
  uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), bytes, bytes + 4);
}

void BufWriter::U64(uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  buf_.insert(buf_.end(), bytes, bytes + 8);
}

void BufWriter::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void BufWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BufWriter::Bytes(const std::vector<uint8_t>& b) {
  U32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

bool BufReader::U8(uint8_t* v) {
  if (pos_ + 1 > buf_.size()) return false;
  *v = buf_[pos_++];
  return true;
}

bool BufReader::U32(uint32_t* v) {
  if (pos_ + 4 > buf_.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(buf_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return true;
}

bool BufReader::U64(uint64_t* v) {
  if (pos_ + 8 > buf_.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(buf_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return true;
}

bool BufReader::I32(int32_t* v) {
  uint32_t u = 0;
  if (!U32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool BufReader::I64(int64_t* v) {
  uint64_t u = 0;
  if (!U64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool BufReader::F64(double* v) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool BufReader::Str(std::string* s) {
  uint32_t n = 0;
  if (!U32(&n)) return false;
  if (pos_ + n > buf_.size()) return false;
  s->assign(reinterpret_cast<const char*>(buf_.data()) + pos_, n);
  pos_ += n;
  return true;
}

bool BufReader::Bytes(std::vector<uint8_t>* b) {
  uint32_t n = 0;
  if (!U32(&n)) return false;
  if (pos_ + n > buf_.size()) return false;
  b->assign(buf_.begin() + static_cast<ptrdiff_t>(pos_),
            buf_.begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  return true;
}

namespace {

// Reflected CRC-32 lookup table for the IEEE 802.3 polynomial 0xEDB88320,
// generated once on first use.
const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

constexpr uint32_t kFileMagic = 0xDBA6F11E;
constexpr uint32_t kFileVersion = 1;
// magic + version + u64 payload length; CRC32 footer follows the payload.
constexpr size_t kFileHeaderBytes = 4 + 4 + 8;
constexpr size_t kFileFooterBytes = 4;

// strerror() hands back a static buffer and is not thread-safe
// (concurrency-mt-unsafe) — checkpoint saves can fail concurrently from the
// retrain thread and a caller's SaveToFile. strerror_r is safe but has two
// signatures (XSI returns int and fills the buffer, GNU returns the message
// pointer); overload resolution on the return type handles either libc.
[[maybe_unused]] const char* StrerrorResult(const char* r,
                                            const char* /*buf*/) {
  return r;
}
[[maybe_unused]] const char* StrerrorResult(int /*r*/, const char* buf) {
  return buf;
}

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  char buf[256];
  buf[0] = '\0';
  const char* msg = StrerrorResult(strerror_r(errno, buf, sizeof(buf)), buf);
  return op + " failed for " + path + ": " + msg;
}

// Writes the whole buffer, retrying short writes. False on any write error.
bool WriteAll(int fd, const uint8_t* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// Reads the whole file into *out. False on open/read error.
bool ReadAll(const std::string& path, std::vector<uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    out->insert(out->end(), buf, buf + r);
  }
  ::close(fd);
  return true;
}

// Verifies one framed file image in memory; on success copies the payload to
// *payload. Returns a describing error otherwise.
Status VerifyFrame(const std::string& path, const std::vector<uint8_t>& image,
                   std::vector<uint8_t>* payload) {
  if (image.size() < kFileHeaderBytes + kFileFooterBytes) {
    return Status::InvalidArgument(path + ": file shorter than frame header");
  }
  BufReader r(image);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t length = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&length)) {
    return Status::InvalidArgument(path + ": truncated frame header");
  }
  if (magic != kFileMagic) {
    return Status::InvalidArgument(path + ": bad file magic");
  }
  if (version != kFileVersion) {
    return Status::InvalidArgument(path + ": unsupported file version");
  }
  if (length != image.size() - kFileHeaderBytes - kFileFooterBytes) {
    return Status::InvalidArgument(path +
                                   ": payload length does not match file size "
                                   "(torn write)");
  }
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(image[image.size() - 4 +
                                              static_cast<size_t>(i)])
                  << (8 * i);
  }
  uint32_t actual_crc = Crc32(image.data(), image.size() - kFileFooterBytes);
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument(path + ": CRC32 mismatch (corrupt file)");
  }
  payload->assign(image.begin() + static_cast<ptrdiff_t>(kFileHeaderBytes),
                  image.end() - static_cast<ptrdiff_t>(kFileFooterBytes));
  return Status::OK();
}

// fsyncs the directory containing `path` so the renames themselves are
// durable. Best-effort: some filesystems reject directory fsync.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t crc) {
  const uint32_t* table = Crc32Table();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status SaveToFile(const std::string& path, const std::vector<uint8_t>& blob) {
  // The frame goes out in three writes, with no copy of the payload.
  BufWriter head, foot;
  head.U32(kFileMagic);
  head.U32(kFileVersion);
  head.U64(blob.size());
  const std::vector<uint8_t> header = head.Take();
  foot.U32(
      Crc32(blob.data(), blob.size(), Crc32(header.data(), header.size())));
  const std::vector<uint8_t> footer = foot.Take();

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal(ErrnoMessage("open", tmp));
  if (DBAUGUR_FAULT_POINT("binio.save.write")) {
    // Simulated crash / ENOSPC mid-write: leave a torn temp file behind. The
    // installed `path` is untouched, so last-good recovery still works.
    WriteAll(fd, header.data(), header.size());
    WriteAll(fd, blob.data(), blob.size() / 2);
    ::close(fd);
    return Status::Internal("injected write failure for " + tmp);
  }
  if (!WriteAll(fd, header.data(), header.size()) ||
      !WriteAll(fd, blob.data(), blob.size()) ||
      !WriteAll(fd, footer.data(), footer.size())) {
    Status st = Status::Internal(ErrnoMessage("write", tmp));
    ::close(fd);
    return st;
  }
  if (DBAUGUR_FAULT_POINT("binio.save.sync")) {
    ::close(fd);
    return Status::Internal("injected fsync failure for " + tmp);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Internal(ErrnoMessage("fsync", tmp));
    ::close(fd);
    return st;
  }
  if (::close(fd) != 0) return Status::Internal(ErrnoMessage("close", tmp));

  // Preserve the previous good file, then install the new one atomically.
  // A crash between the two renames leaves only `.bak`, which LoadFromFile
  // falls back to.
  if (::access(path.c_str(), F_OK) == 0) {
    if (::rename(path.c_str(), (path + ".bak").c_str()) != 0) {
      return Status::Internal(ErrnoMessage("rename to .bak", path));
    }
  }
  if (DBAUGUR_FAULT_POINT("binio.save.rename") ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed for " + tmp + " -> " + path);
  }
  SyncParentDir(path);
  return Status::OK();
}

StatusOr<FileLoadResult> LoadFromFile(const std::string& path) {
  FileLoadResult out;
  std::vector<uint8_t> image;
  Status primary = Status::OK();
  if (ReadAll(path, &image)) {
    primary = VerifyFrame(path, image, &out.blob);
    if (primary.ok()) return out;
  } else {
    primary = Status::NotFound(ErrnoMessage("open/read", path));
  }
  const std::string bak = path + ".bak";
  Status backup = Status::OK();
  if (ReadAll(bak, &image)) {
    backup = VerifyFrame(bak, image, &out.blob);
    if (backup.ok()) {
      out.recovered_from_backup = true;
      return out;
    }
  } else {
    backup = Status::NotFound(ErrnoMessage("open/read", bak));
  }
  return Status::InvalidArgument("no loadable blob: [" + primary.ToString() +
                                 "] and [" + backup.ToString() + "]");
}

}  // namespace dbaugur
