// Little-endian byte-stream writer/reader for snapshot persistence, plus
// crash-safe blob-file I/O.
//
// Every multi-byte scalar is written least-significant-byte first regardless
// of host endianness, so blobs are portable across machines. The reader is
// bounds-checked: each Get* returns false on truncation instead of reading
// past the end, and callers turn that into a Status at the format layer.
//
// SaveToFile/LoadFromFile wrap a blob in a CRC32-checked container and write
// it with the classic crash-safe sequence (write temp → fsync → atomic
// rename), keeping the previous good file as `<path>.bak` so a torn or
// bit-flipped blob recovers to last-good instead of erroring out.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbaugur {

/// Appends scalars/strings/blobs to a growing byte buffer.
class BufWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Bit-exact double transport (round-trips NaN payloads and -0.0).
  void F64(double v);
  /// u32 length prefix + raw bytes.
  void Str(const std::string& s);
  /// u32 length prefix + raw bytes (nested blobs, e.g. model states).
  void Bytes(const std::vector<uint8_t>& b);
  /// Makes room for `n` more bytes, so the appends that follow do not
  /// reallocate.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked sequential reader over a byte buffer (not owned).
class BufReader {
 public:
  explicit BufReader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I32(int32_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);
  bool Str(std::string* s);
  bool Bytes(std::vector<uint8_t>* b);

  size_t pos() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) of `n` bytes. `crc` is
/// the CRC of the bytes before them, so one CRC runs across buffers:
/// Crc32(b, nb, Crc32(a, na)) is the CRC of a followed by b.
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t crc = 0);

/// Result of LoadFromFile: the verified payload plus whether it came from the
/// `.bak` fallback rather than the primary file.
struct FileLoadResult {
  std::vector<uint8_t> blob;
  bool recovered_from_backup = false;
};

/// Writes `blob` to `path` crash-safely: the framed payload (magic, version,
/// length, bytes, CRC32 footer) goes to `path.tmp`, is fsync'd, the previous
/// `path` (if any) is preserved as `path.bak`, and `path.tmp` is atomically
/// renamed into place. A crash or injected failure at any step leaves either
/// the old `path` or its `.bak` intact and verifiable.
Status SaveToFile(const std::string& path, const std::vector<uint8_t>& blob);

/// Reads and verifies `path` (magic + declared length + CRC32). On a missing,
/// truncated, or corrupt primary file it falls back to `path.bak`; only when
/// both fail does it return an error describing each. Never partially
/// succeeds: the returned blob always passed the checksum.
StatusOr<FileLoadResult> LoadFromFile(const std::string& path);

}  // namespace dbaugur
