// CRC-32-sectioned stream helpers shared by the checkpoint writer
// (train/checkpoint.cpp) and the per-rank optimizer shard files
// (train/resilience.cpp). A "section" is a run of bytes followed by the
// CRC-32 of exactly those bytes; the CRC bytes themselves belong to no
// section. Writers short-circuit after the first failure so call sites can
// batch writes and check `ok()` once; readers report a mismatch (or a
// truncation inside the CRC itself) from check_crc().
#pragma once

#include <cstdint>
#include <cstdio>
#include <type_traits>

#include "fault/crc32.h"

namespace apollo::train {

// Streams bytes to a FILE* while accumulating a CRC-32 over everything
// written since the last emit_crc().
class CrcWriter {
 public:
  explicit CrcWriter(std::FILE* f) : f_(f) {}

  void write(const void* p, size_t n) {
    if (!ok_ || n == 0) return;
    if (std::fwrite(p, 1, n, f_) != n) {
      ok_ = false;
      return;
    }
    crc_ = fault::crc32_update(crc_, p, n);
  }
  // Padding-free types only, as for apollo::write_pod (tensor/serialize.h).
  template <typename T>
  void write_pod(const T& v) {
    static_assert(std::is_arithmetic_v<T> ||
                  std::has_unique_object_representations_v<T>);
    write(&v, sizeof v);
  }
  // Writes the CRC of the section that just ended (the CRC bytes themselves
  // are not part of any section) and starts a new section.
  void emit_crc() {
    const uint32_t c = fault::crc32_final(crc_);
    if (ok_ && std::fwrite(&c, 1, sizeof c, f_) != sizeof c) ok_ = false;
    crc_ = fault::kCrc32Init;
  }
  // Raw write outside any section (magic bytes).
  void write_raw(const void* p, size_t n) {
    if (ok_ && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = fault::kCrc32Init;
  bool ok_ = true;
};

// Reads bytes while accumulating a CRC-32; check_crc() reads the stored
// section CRC and compares.
class CrcReader {
 public:
  explicit CrcReader(std::FILE* f) : f_(f) {}

  bool read(void* p, size_t n) {
    if (!ok_) return false;
    if (n == 0) return true;
    if (std::fread(p, 1, n, f_) != n) {
      ok_ = false;
      return false;
    }
    crc_ = fault::crc32_update(crc_, p, n);
    return true;
  }
  template <typename T>
  bool read_pod(T& v) {
    static_assert(std::is_arithmetic_v<T> ||
                  std::has_unique_object_representations_v<T>);
    return read(&v, sizeof v);
  }
  // Returns true when the stored section CRC matches the accumulated one;
  // starts a new section either way. Truncation mid-CRC also returns false.
  bool check_crc() {
    const uint32_t computed = fault::crc32_final(crc_);
    crc_ = fault::kCrc32Init;
    uint32_t stored = 0;
    if (!ok_ || std::fread(&stored, 1, sizeof stored, f_) != sizeof stored) {
      ok_ = false;
      return false;
    }
    return stored == computed;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = fault::kCrc32Init;
  bool ok_ = true;
};

}  // namespace apollo::train
