// Checkpoint I/O shared by the weights file writer/reader
// (train/checkpoint.cpp) and the per-rank optimizer shard files
// (train/resilience.cpp): the CRC-32-sectioned stream helpers, the one
// atomic commit, and the raw optimizer-section handoff.
//
// A "section" is a run of bytes followed by the CRC-32 of exactly those
// bytes; the CRC bytes themselves belong to no section. Writers
// short-circuit after the first failure so call sites can batch writes and
// check `ok()` once; readers report a mismatch (or a truncation inside the
// CRC itself) from check_crc().
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/crc32.h"
#include "nn/llama.h"
#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "train/checkpoint.h"

namespace apollo::train {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

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

// The one atomic commit: `payload` streams the whole file into
// `path + ".tmp"`, which is then fflush'd and fsync'd, renamed over `path`,
// and the rename made durable by fsyncing the parent directory. A failed
// attempt removes its temp file and is retried with bounded backoff, so a
// crash at any point leaves either the old file or the new one, never a
// torn one. `payload` returns an empty string on success, else the error.
// Returns "" on success, else the last error (with the attempt count).
std::string commit_atomically(
    const std::string& path,
    const std::function<std::string(std::FILE*)>& payload);

// Serializes the optimizer state into memory so it can be length-prefixed
// and checksummed. False when the optimizer does not support serialization.
bool capture_optimizer_blob(const optim::Optimizer& opt,
                            const nn::ParamList& params,
                            std::vector<char>* out);

// Hands one CRC-verified optimizer blob to `opt`: load_state when `merge`
// is false (the whole state, replacing what is there), else merge_state
// (one shard, merged under `opt`'s current shard layout).
bool restore_optimizer_blob(optim::Optimizer& opt, std::vector<char>& blob,
                            const nn::ParamList& params, bool merge);

// A weights file's optimizer section, read and validated but not applied.
struct OptimizerSection {
  bool present = false;
  std::string name;
  std::vector<char> blob;
};

// Loads the weights of a v1/v2/v3 checkpoint into `model` and hands back its
// optimizer section untouched. load_checkpoint is this plus load_state.
CheckpointResult read_checkpoint(const std::string& path,
                                 nn::LlamaModel& model,
                                 OptimizerSection* section);

}  // namespace apollo::train
