// Little-endian binary stream helpers shared by the checkpoint writer
// (train/checkpoint.cpp) and the optimizer-state serializers. All functions return false on short
// reads/writes so callers can surface errors without exceptions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "tensor/matrix.h"

namespace apollo {

// n == 0 short-circuits: empty matrices/strings have a null data() pointer,
// and passing null to fwrite/fread is UB even for zero-length transfers.
inline bool write_bytes(std::FILE* f, const void* p, size_t n) {
  return n == 0 || std::fwrite(p, 1, n, f) == n;
}
inline bool read_bytes(std::FILE* f, void* p, size_t n) {
  return n == 0 || std::fread(p, 1, n, f) == n;
}

// Only padding-free types: padding bytes are indeterminate, so writing them
// would make checkpoint bytes differ from run to run.
template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  static_assert(std::is_arithmetic_v<T> ||
                std::has_unique_object_representations_v<T>);
  return write_bytes(f, &v, sizeof v);
}
template <typename T>
bool read_pod(std::FILE* f, T& v) {
  static_assert(std::is_arithmetic_v<T> ||
                std::has_unique_object_representations_v<T>);
  return read_bytes(f, &v, sizeof v);
}

inline bool write_string(std::FILE* f, const std::string& s) {
  const uint32_t n = static_cast<uint32_t>(s.size());
  return write_pod(f, n) && write_bytes(f, s.data(), n);
}
inline bool read_string(std::FILE* f, std::string& s, uint32_t max = 4096) {
  uint32_t n = 0;
  if (!read_pod(f, n) || n > max) return false;
  s.resize(n);
  return read_bytes(f, s.data(), n);
}

inline bool write_matrix(std::FILE* f, const Matrix& m) {
  const int64_t r = m.rows(), c = m.cols();
  return write_pod(f, r) && write_pod(f, c) &&
         write_bytes(f, m.data(),
                     static_cast<size_t>(m.size()) * sizeof(float));
}
inline bool read_matrix(std::FILE* f, Matrix& m) {
  int64_t r = 0, c = 0;
  if (!read_pod(f, r) || !read_pod(f, c) || r < 0 || c < 0 ||
      r * c > (1ll << 32))
    return false;
  m.reshape_discard(r, c);
  return read_bytes(f, m.data(),
                    static_cast<size_t>(m.size()) * sizeof(float));
}

}  // namespace apollo
