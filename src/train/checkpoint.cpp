#include "train/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <memory>
#include <unistd.h>
#include <vector>

#include "fault/crc32.h"
#include "fault/fault_injection.h"
#include "nn/parameter.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "train/ckpt_io.h"

namespace apollo::train {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'L', 'O'};
constexpr char kEndMagic[4] = {'O', 'L', 'P', 'A'};
constexpr uint32_t kVersion = 3;
constexpr int kSaveAttempts = 3;

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

CheckpointResult fail(const std::string& msg) {
  CheckpointResult r;
  r.error = msg;
  return r;
}

// Writes the full v3 payload into an already-open temp file. `step` is
// forwarded to the fault-injection hooks. Sets *opt_section_off to the file
// offset where the optimizer section begins (for the bitflip_opt fault).
CheckpointResult write_payload(std::FILE* f, const std::string& path,
                               nn::LlamaModel& model, int64_t step,
                               const optim::Optimizer* opt,
                               long* opt_section_off) {
  CrcWriter w(f);
  auto params = model.parameters();
  const uint32_t count = static_cast<uint32_t>(params.size());

  w.write_raw(kMagic, 4);
  w.write_pod(kVersion);
  w.write_pod(step);
  w.write_pod(count);
  w.emit_crc();
  if (!w.ok()) return fail("write failed (header): " + path);

  size_t i = 0;
  for (const nn::Parameter* p : params) {
    // Simulated crash halfway through the parameter sections: the temp
    // file is flushed (so a torn prefix is actually on disk) and the
    // process dies without any cleanup, exactly like a mid-save SIGKILL.
    if (i++ == params.size() / 2 &&
        fault::take_at_or_after(fault::Kind::kCrashInSave, step)) {
      std::fflush(f);
      std::_Exit(fault::kCrashInSaveExitCode);
    }
    const uint32_t name_len = static_cast<uint32_t>(p->name.size());
    const int64_t rows = p->value.rows(), cols = p->value.cols();
    w.write_pod(name_len);
    w.write(p->name.data(), name_len);
    w.write_pod(rows);
    w.write_pod(cols);
    w.write(p->value.data(),
            static_cast<size_t>(p->value.size()) * sizeof(float));
    w.emit_crc();
    if (!w.ok()) return fail("write failed (param " + p->name + "): " + path);
  }

  *opt_section_off = std::ftell(f);
  CheckpointResult r;
  std::vector<char> blob;
  const bool has_state =
      opt != nullptr && capture_optimizer_blob(*opt, params, &blob);
  const uint8_t has_opt = has_state ? 1 : 0;
  w.write_pod(has_opt);
  if (has_state) {
    const std::string name = opt->name();
    const uint32_t name_len = static_cast<uint32_t>(name.size());
    const uint64_t blob_len = blob.size();
    w.write_pod(name_len);
    w.write(name.data(), name_len);
    w.write_pod(blob_len);
    w.write(blob.data(), blob.size());
    r.optimizer_state_restored = true;  // saved, symmetrically
  }
  w.emit_crc();
  w.write_raw(kEndMagic, 4);
  if (!w.ok()) return fail("write failed (optimizer section): " + path);

  r.ok = true;
  r.step = step;
  return r;
}

void backoff_sleep(int attempt) {
  // 10ms, 40ms, 160ms — bounded, long enough for transient EAGAIN/ENOSPC
  // blips to clear, short enough to never matter on the happy path.
  timespec ts{};
  ts.tv_nsec = 10L * 1000 * 1000 << (2 * attempt);
  nanosleep(&ts, nullptr);
}

// Flushes the renamed file's directory so the rename itself is durable.
void fsync_parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

// Post-commit fault hooks: corrupt the just-renamed checkpoint in the ways
// a less careful writer (or failing hardware) would, so auto-resume's CRC
// scan has something real to detect.
void apply_post_commit_faults(const std::string& path, int64_t step,
                              long opt_section_off) {
  if (fault::take_at_or_after(fault::Kind::kTruncCkpt, step)) {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    long size = 0;
    if (f) {
      std::fseek(f.get(), 0, SEEK_END);
      size = std::ftell(f.get());
      f.reset();
    }
    if (size > 0) {
      if (::truncate(path.c_str(), size / 2) != 0)
        std::fprintf(stderr, "[fault] trunc_ckpt: truncate failed\n");
    }
  }
  if (fault::take_at_or_after(fault::Kind::kBitflipOpt, step)) {
    FilePtr f(std::fopen(path.c_str(), "r+b"));
    if (f) {
      std::fseek(f.get(), 0, SEEK_END);
      const long size = std::ftell(f.get());
      // Midpoint of the optimizer section payload (before its CRC and the
      // end magic): detectable only by the section checksum.
      const long payload_end = size - 8;
      if (payload_end > opt_section_off) {
        const long off = opt_section_off + (payload_end - opt_section_off) / 2;
        std::fseek(f.get(), off, SEEK_SET);
        const int c = std::fgetc(f.get());
        if (c != EOF) {
          std::fseek(f.get(), off, SEEK_SET);
          std::fputc(c ^ 0x10, f.get());
        }
      }
    }
  }
}

}  // namespace

bool capture_optimizer_blob(const optim::Optimizer& opt,
                            const nn::ParamList& params,
                            std::vector<char>* out) {
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mf = open_memstream(&buf, &len);
  if (mf == nullptr) return false;
  const bool supported = opt.save_state(mf, params);
  std::fclose(mf);
  std::unique_ptr<char, FreeDeleter> owned(buf);
  if (!supported) return false;
  out->assign(owned.get(), owned.get() + len);
  return true;
}

bool restore_optimizer_blob(optim::Optimizer& opt, std::vector<char>& blob,
                            const nn::ParamList& params, bool merge) {
  // An in-memory stream, so a short blob surfaces as a load failure, not a
  // file error.
  std::FILE* mf = fmemopen(blob.data(), blob.size(), "rb");
  if (mf == nullptr) return false;
  const bool ok =
      merge ? opt.merge_state(mf, params) : opt.load_state(mf, params);
  std::fclose(mf);
  return ok;
}

std::string commit_atomically(
    const std::string& path,
    const std::function<std::string(std::FILE*)>& payload) {
  const std::string tmp = path + ".tmp";
  std::string last;
  for (int attempt = 0; attempt < kSaveAttempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) {
      last = "cannot open for writing: " + tmp;
      continue;
    }
    std::string err = payload(f.get());
    // Durability: flush user-space buffers, then the kernel's, then commit
    // via rename, then make the rename itself durable.
    if (err.empty() &&
        (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0))
      err = "fsync failed: " + tmp;
    f.reset();
    if (err.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
      err = "rename failed: " + tmp + " -> " + path;
    if (err.empty()) {
      fsync_parent_dir(path);
      return err;
    }
    std::remove(tmp.c_str());
    last = std::move(err);
  }
  return last + " (after " + std::to_string(kSaveAttempts) + " attempts)";
}

CheckpointResult save_checkpoint(const std::string& path,
                                 nn::LlamaModel& model, int64_t step,
                                 const optim::Optimizer* opt) {
  APOLLO_TRACE_SCOPE("save_checkpoint", "io");
  CheckpointResult r;
  long opt_section_off = 0;
  const std::string err = commit_atomically(path, [&](std::FILE* f) {
    r = write_payload(f, path + ".tmp", model, step, opt, &opt_section_off);
    return r.error;
  });
  if (!err.empty()) return fail(err);
  apply_post_commit_faults(path, step, opt_section_off);
  return r;
}

namespace {

// Legacy loader for v1 (weights only) and v2 (optimizer tail, no CRCs)
// files, kept byte-compatible with the original readers. A v2 tail has no
// length prefix: its blob is the rest of the file.
CheckpointResult load_legacy(std::FILE* f, const std::string& path,
                             uint32_t version, int64_t step,
                             const nn::ParamList& params,
                             OptimizerSection* section) {
  for (nn::Parameter* p : params) {
    uint32_t name_len = 0;
    if (!read_pod(f, name_len) || name_len > 4096)
      return fail("corrupt name length near param " + p->name);
    std::string name(name_len, '\0');
    int64_t rows = 0, cols = 0;
    if (!read_bytes(f, name.data(), name_len) || !read_pod(f, rows) ||
        !read_pod(f, cols))
      return fail("truncated param header near " + p->name);
    if (name != p->name)
      return fail("parameter name mismatch: file '" + name + "' vs model '" +
                  p->name + "'");
    if (rows != p->value.rows() || cols != p->value.cols())
      return fail("shape mismatch for " + name);
    if (!read_bytes(f, p->value.data(),
                    static_cast<size_t>(p->value.size()) * sizeof(float)))
      return fail("truncated data for " + name);
  }

  CheckpointResult r;
  r.ok = true;
  r.step = step;
  if (version < 2) return r;  // v1: weights only

  uint8_t has_opt = 0;
  if (!read_pod(f, has_opt) || has_opt == 0) return r;  // tolerate no tail
  if (!read_string(f, section->name))
    return fail("corrupt optimizer section: " + path);
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    section->blob.insert(section->blob.end(), buf, buf + n);
  section->present = true;
  return r;
}

CheckpointResult load_v3(std::FILE* f, const std::string& path,
                         long file_size, const nn::ParamList& params,
                         OptimizerSection* section) {
  CrcReader rd(f);
  for (nn::Parameter* p : params) {
    uint32_t name_len = 0;
    if (!rd.read_pod(name_len) || name_len > 4096)
      return fail("truncated param header near " + p->name);
    std::string name(name_len, '\0');
    int64_t rows = 0, cols = 0;
    if (!rd.read(name.data(), name_len) || !rd.read_pod(rows) ||
        !rd.read_pod(cols))
      return fail("truncated param header near " + p->name);
    if (name != p->name)
      return fail("parameter name mismatch: file '" + name + "' vs model '" +
                  p->name + "'");
    if (rows != p->value.rows() || cols != p->value.cols())
      return fail("shape mismatch for " + name);
    if (!rd.read(p->value.data(),
                 static_cast<size_t>(p->value.size()) * sizeof(float)))
      return fail("truncated data for " + name);
    if (!rd.check_crc())
      return fail(rd.ok() ? "CRC mismatch in parameter section '" + name +
                                "': " + path
                          : "truncated parameter section '" + name +
                                "': " + path);
  }

  CheckpointResult r;
  uint8_t has_opt = 0;
  if (!rd.read_pod(has_opt))
    return fail("truncated optimizer section: " + path);
  if (has_opt != 0) {
    uint32_t name_len = 0;
    if (!rd.read_pod(name_len) || name_len > 4096)
      return fail("truncated optimizer section: " + path);
    section->name.assign(name_len, '\0');
    uint64_t blob_len = 0;
    if (!rd.read(section->name.data(), name_len) || !rd.read_pod(blob_len))
      return fail("truncated optimizer section: " + path);
    // A length past the end of the file is corrupt, not a reason to
    // allocate it.
    if (blob_len > (uint64_t{1} << 33) ||
        blob_len > static_cast<uint64_t>(file_size - std::ftell(f)))
      return fail("corrupt optimizer blob length: " + path);
    section->blob.resize(blob_len);
    if (!rd.read(section->blob.data(), section->blob.size()))
      return fail("truncated optimizer section: " + path);
  }
  if (!rd.check_crc())
    return fail(rd.ok() ? "CRC mismatch in optimizer section: " + path
                        : "truncated optimizer section: " + path);
  char end_magic[4];
  if (std::fread(end_magic, 1, 4, f) != 4 ||
      std::memcmp(end_magic, kEndMagic, 4) != 0)
    return fail("missing end marker (truncated tail): " + path);
  section->present = has_opt != 0;
  r.ok = true;
  return r;
}

}  // namespace

CheckpointResult read_checkpoint(const std::string& path,
                                 nn::LlamaModel& model,
                                 OptimizerSection* section) {
  APOLLO_TRACE_SCOPE("load_checkpoint", "io");
  *section = OptimizerSection();
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail("cannot open for reading: " + path);

  // A zero-byte file is what a crashed non-atomic writer leaves behind the
  // moment after open(O_TRUNC); report it distinctly from garbage content.
  std::fseek(f.get(), 0, SEEK_END);
  const long file_size = std::ftell(f.get());
  if (file_size == 0) return fail("empty checkpoint file: " + path);
  std::fseek(f.get(), 0, SEEK_SET);

  char magic[4];
  if (std::fread(magic, 1, 4, f.get()) != 4)
    return fail("truncated header: " + path);
  if (std::memcmp(magic, kMagic, 4) != 0)
    return fail("bad magic (not an APOLLO checkpoint): " + path);

  uint32_t version = 0;
  if (std::fread(&version, 1, sizeof version, f.get()) != sizeof version)
    return fail("truncated header: " + path);
  if (version != 1 && version != 2 && version != kVersion)
    return fail("unsupported checkpoint version " + std::to_string(version));

  auto params = model.parameters();
  int64_t step = 0;
  uint32_t count = 0;
  if (version == kVersion) {
    // v3 header section: CRC covers version|step|count.
    uint32_t crc = fault::crc32_update(fault::kCrc32Init, &version,
                                       sizeof version);
    if (std::fread(&step, 1, sizeof step, f.get()) != sizeof step ||
        std::fread(&count, 1, sizeof count, f.get()) != sizeof count)
      return fail("truncated header: " + path);
    crc = fault::crc32_update(crc, &step, sizeof step);
    crc = fault::crc32_update(crc, &count, sizeof count);
    uint32_t stored = 0;
    if (std::fread(&stored, 1, sizeof stored, f.get()) != sizeof stored)
      return fail("truncated header: " + path);
    if (stored != fault::crc32_final(crc))
      return fail("CRC mismatch in header: " + path);
  } else {
    if (!read_pod(f.get(), step) || !read_pod(f.get(), count))
      return fail("truncated header: " + path);
  }
  if (count != params.size())
    return fail("parameter count mismatch: file has " +
                std::to_string(count) + ", model has " +
                std::to_string(params.size()));

  CheckpointResult r =
      version == kVersion
          ? load_v3(f.get(), path, file_size, params, section)
          : load_legacy(f.get(), path, version, step, params, section);
  if (r.ok) r.step = step;
  return r;
}

CheckpointResult load_checkpoint(const std::string& path,
                                 nn::LlamaModel& model,
                                 optim::Optimizer* opt) {
  OptimizerSection section;
  CheckpointResult r = read_checkpoint(path, model, &section);
  // A different optimizer's state is skipped: the weights still load.
  if (!r.ok || opt == nullptr || !section.present ||
      section.name != opt->name())
    return r;
  if (!restore_optimizer_blob(*opt, section.blob, model.parameters(),
                              /*merge=*/false))
    return fail("failed to restore optimizer state (" + section.name + ")");
  r.optimizer_state_restored = true;
  return r;
}

}  // namespace apollo::train
