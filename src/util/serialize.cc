#include "util/serialize.h"

#include <unistd.h>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace vkg::util {

BinaryWriter::BinaryWriter(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp") {
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for writing: " + tmp_path_);
  }
}

BinaryWriter::~BinaryWriter() {
  // Never committed: abandon the temp file, leave the destination be.
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

void BinaryWriter::WriteBytes(const void* data, size_t n) {
  if (!status_.ok()) return;
  if (VKG_FAILPOINT("serialize.write")) {
    status_ = Status::IoError("injected write failure (serialize.write)");
    return;
  }
  if (std::fwrite(data, 1, n, file_) != n) {
    status_ = Status::IoError("short write");
    return;
  }
  crc_ = Fnv1a(crc_, data, n);
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void BinaryWriter::WriteF32Array(const std::vector<float>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::WriteChecksum() {
  const uint64_t crc = crc_;  // excludes the checksum's own bytes
  WriteU64(crc);
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return status_;
  std::FILE* file = file_;
  file_ = nullptr;
  if (status_.ok() &&
      (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0)) {
    status_ = Status::IoError("cannot flush: " + tmp_path_);
  }
  if (std::fclose(file) != 0 && status_.ok()) {
    status_ = Status::IoError("close error: " + tmp_path_);
  }
  if (status_.ok() && std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    status_ = Status::IoError("cannot rename " + tmp_path_ + " to " + path_);
  }
  if (!status_.ok()) std::remove(tmp_path_.c_str());
  return status_;
}

BinaryReader::BinaryReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open for reading: " + path);
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    status_ = Status::IoError("cannot seek: " + path);
    return;
  }
  long size = std::ftell(file_);
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot determine file size: " + path);
    return;
  }
  size_ = static_cast<size_t>(size);
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryReader::ReadBytes(void* data, size_t n) {
  if (!status_.ok()) return;
  if (VKG_FAILPOINT("serialize.read")) {
    status_ = Status::IoError("injected read failure (serialize.read)");
    return;
  }
  size_t got = std::fread(data, 1, n, file_);
  pos_ += got;
  if (got != n) {
    status_ = Status::IoError("short read");
    return;
  }
  crc_ = Fnv1a(crc_, data, n);
}

bool BinaryReader::VerifyChecksum() {
  const uint64_t expected = crc_;  // before reading the stored value
  uint64_t stored = ReadU64();
  if (!status_.ok()) return false;
  if (stored != expected) {
    status_ = Status::DataLoss(
        "checksum mismatch: file content is corrupt");
    return false;
  }
  return true;
}

bool BinaryReader::CheckLength(uint64_t n, size_t elem_size,
                               const char* what) {
  if (!status_.ok()) return false;
  // Guard the multiplication too: a flipped high byte must not wrap.
  if (n > Remaining() / (elem_size == 0 ? 1 : elem_size) ||
      n * elem_size > Remaining()) {
    status_ = Status::DataLoss(StrFormat(
        "%s length %zu exceeds the %zu bytes left in the file "
        "(corrupt length field)",
        what, static_cast<size_t>(n), Remaining()));
    return false;
  }
  return true;
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

float BinaryReader::ReadF32() {
  float v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

double BinaryReader::ReadF64() {
  double v = 0;
  ReadBytes(&v, sizeof(v));
  return v;
}

std::string BinaryReader::ReadString() {
  uint64_t n = ReadU64();
  if (!CheckLength(n, 1, "string")) return {};
  std::string s(n, '\0');
  ReadBytes(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::ReadF32Array() {
  uint64_t n = ReadU64();
  if (!CheckLength(n, sizeof(float), "f32 array")) return {};
  std::vector<float> v(n);
  ReadBytes(v.data(), n * sizeof(float));
  return v;
}

}  // namespace vkg::util
