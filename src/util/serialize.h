#ifndef VKG_UTIL_SERIALIZE_H_
#define VKG_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.h"

namespace vkg::util {

/// FNV-1a offset basis: the seed of every checksum in the persistence
/// and wire formats.
inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// Incremental FNV-1a over `n` bytes, folded into `h` so chained calls
/// compose. The checksum primitive shared by BinaryWriter/BinaryReader
/// and the net/ frame codec.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n);

/// Little-endian binary writer for persisting embeddings and indexes.
///
/// Crash-safe replacement: bytes go to `path + ".tmp"` in the same
/// directory, and only a successful Close() flushes, fsyncs and renames
/// that file over `path`. On any error, or when the writer is destroyed
/// without a successful Close(), the temp file is unlinked and `path`
/// keeps its previous contents.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  const Status& status() const { return status_; }

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteF32Array(const std::vector<float>& v);

  /// Appends an FNV-1a checksum of every byte written so far. A reader
  /// calls VerifyChecksum at the matching position; any flipped bit in
  /// the preceding content then surfaces as kDataLoss instead of being
  /// parsed into a silently-wrong structure.
  void WriteChecksum();

  /// Commits the file (flush, fsync, rename over the destination). The
  /// first error of the whole write wins; on error nothing is renamed.
  Status Close();

 private:
  void WriteBytes(const void* data, size_t n);

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  uint64_t crc_ = 1469598103934665603ULL;  // FNV-1a offset basis
  Status status_;
};

/// Binary reader matching BinaryWriter's encoding.
///
/// Corruption hardening: length-prefixed reads (ReadString,
/// ReadF32Array) validate the length against the bytes actually left in
/// the file before allocating, so a flipped length byte yields a
/// kDataLoss status instead of a multi-gigabyte allocation attempt.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  const Status& status() const { return status_; }

  uint32_t ReadU32();
  uint64_t ReadU64();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadF32Array();

  /// Bytes left between the read position and end of file.
  size_t Remaining() const { return size_ - pos_; }

  /// Reads a checksum written by BinaryWriter::WriteChecksum and compares
  /// it against the running checksum of every byte read so far. On
  /// mismatch sets a kDataLoss status and returns false.
  bool VerifyChecksum();

 private:
  void ReadBytes(void* data, size_t n);
  /// Sets a kDataLoss status (and returns false) when a length field
  /// requests more than the remaining file contents.
  bool CheckLength(uint64_t n, size_t elem_size, const char* what);

  std::FILE* file_ = nullptr;
  size_t size_ = 0;  // total file size in bytes
  size_t pos_ = 0;   // current read offset
  uint64_t crc_ = 1469598103934665603ULL;  // FNV-1a offset basis
  Status status_;
};

}  // namespace vkg::util

#endif  // VKG_UTIL_SERIALIZE_H_
