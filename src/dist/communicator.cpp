#include "dist/communicator.h"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace apollo::dist {

namespace {

// A barrier waiter yields for this long before it starts napping between
// polls. Waits inside a training step (a peer finishing its share of the
// same work) are mostly shorter; a nap there costs its timer slack on every
// wait. Long waits (a peer in validation or a checkpoint) still nap.
constexpr auto kSpinBudget = std::chrono::milliseconds(2);

void nap_us(long us) {
  timespec ts{0, us * 1000L};
  nanosleep(&ts, nullptr);
}

// out[i] = ((rank0[i] + rank1[i]) + rank2[i]) + … over `world` rank rows
// spaced `stride` floats apart. Each element is summed left to right in rank
// order — the determinism contract — and the loops run across elements, so
// they vectorize without changing any element's association.
void rank_ordered_sum(float* out, const float* rows, int64_t stride,
                      int world, int64_t count) {
  for (int64_t i = 0; i < count; ++i) out[i] = rows[i] + rows[stride + i];
  for (int r = 2; r < world; ++r) {
    const float* row = rows + static_cast<int64_t>(r) * stride;
    for (int64_t i = 0; i < count; ++i) out[i] += row[i];
  }
}

}  // namespace

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kShm: return "shm";
    case Transport::kSocket: return "socket";
  }
  return "?";
}

bool parse_transport(const std::string& name, Transport* out) {
  if (name == "shm") {
    if (out != nullptr) *out = Transport::kShm;
    return true;
  }
  if (name == "socket") {
    if (out != nullptr) *out = Transport::kSocket;
    return true;
  }
  return false;
}

Communicator::Communicator(ControlBlock* ctl, float* slots, int rank,
                           int world, int epoch, Transport transport,
                           std::vector<int> peer_fds, int timeout_ms)
    : ctl_(ctl),
      slots_(slots),
      rank_(rank),
      world_(world),
      epoch_(epoch),
      transport_(transport),
      peer_fds_(std::move(peer_fds)),
      timeout_ms_(timeout_ms) {
  if (transport_ == Transport::kSocket)
    scratch_.resize(static_cast<size_t>(world_) * kBucketFloats);
}

std::chrono::steady_clock::time_point Communicator::deadline() const {
  // Workers wait 2× the supervisor's hung-rank timeout so the supervisor —
  // which names the actually-hung rank — always fires first; the local
  // deadline is a fallback for a dead supervisor.
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(2LL * timeout_ms_);
}

void Communicator::check_interrupt(
    const char* what, std::chrono::steady_clock::time_point deadline) {
  if (ctl_->command.load(std::memory_order_acquire) == kCommandAbort)
    throw WorldInterrupt{std::string("world abort during ") + what};
  if (std::chrono::steady_clock::now() >= deadline)
    throw WorldInterrupt{std::string("timeout in ") + what};
}

void Communicator::heartbeat() {
  ctl_->heartbeat[rank_].fetch_add(1, std::memory_order_relaxed);
}

void Communicator::barrier() {
  ControlBlock& c = *ctl_;
  const uint32_t gen = c.barrier_seq.load(std::memory_order_acquire);
  const uint32_t arrived =
      c.barrier_count.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<uint32_t>(world_)) {
    // Last arrival: reset the count for the next barrier *before* releasing
    // the waiters (no rank can re-enter until the sequence advances).
    c.barrier_count.store(0, std::memory_order_relaxed);
    c.barrier_seq.store(gen + 1, std::memory_order_release);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  const auto dl = deadline();
  int64_t spins = 0;
  while (c.barrier_seq.load(std::memory_order_acquire) == gen) {
    if ((++spins & 63) == 0) {
      heartbeat();
      check_interrupt("barrier", dl);
      if (std::chrono::steady_clock::now() - start >= kSpinBudget) nap_us(50);
    } else {
      sched_yield();
    }
  }
}

void Communicator::pump_io(std::vector<IoOp>& ops, const char* what) {
  const auto dl = deadline();
  std::vector<pollfd> pfds;
  pfds.reserve(ops.size());
  for (;;) {
    pfds.clear();
    bool pending = false;
    for (const IoOp& op : ops) {
      if (op.done >= op.bytes) continue;
      pending = true;
      pollfd p{};
      p.fd = op.fd;
      p.events = op.send ? POLLOUT : POLLIN;
      pfds.push_back(p);
    }
    if (!pending) return;
    const int ready = poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
    heartbeat();
    check_interrupt(what, dl);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw WorldInterrupt{std::string("poll failed in ") + what + ": " +
                           std::strerror(errno)};
    }
    size_t pi = 0;
    for (IoOp& op : ops) {
      if (op.done >= op.bytes) continue;
      const pollfd& p = pfds[pi++];
      if (p.revents == 0) continue;
      if ((p.revents & (POLLERR | POLLNVAL)) != 0 ||
          (!op.send && (p.revents & POLLHUP) != 0 && (p.revents & POLLIN) == 0))
        throw WorldInterrupt{std::string("peer socket failed in ") + what};
      ssize_t n;
      if (op.send) {
        n = send(op.fd, op.cbuf + op.done, op.bytes - op.done, MSG_NOSIGNAL);
      } else {
        n = recv(op.fd, op.buf + op.done, op.bytes - op.done, 0);
        if (n == 0)
          throw WorldInterrupt{std::string("peer closed socket in ") + what};
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw WorldInterrupt{std::string("socket I/O failed in ") + what +
                             ": " + std::strerror(errno)};
      }
      op.done += static_cast<size_t>(n);
    }
  }
}

// Socket transport all-gather of one bucket: every rank sends its chunk to
// every peer and receives each peer's chunk into scratch slot r. Stream
// ordering per socketpair plus identical collective order across ranks
// keeps successive buckets framed without explicit length headers.
void Communicator::exchange_chunk(const float* mine, int64_t count) {
  const size_t bytes = static_cast<size_t>(count) * sizeof(float);
  std::memcpy(scratch_.data() + static_cast<size_t>(rank_) * kBucketFloats,
              mine, bytes);
  std::vector<IoOp> ops;
  ops.reserve(static_cast<size_t>(2 * (world_ - 1)));
  for (int r = 0; r < world_; ++r) {
    if (r == rank_) continue;
    IoOp snd;
    snd.fd = peer_fds_[static_cast<size_t>(r)];
    snd.send = true;
    snd.cbuf = reinterpret_cast<const char*>(mine);
    snd.bytes = bytes;
    ops.push_back(snd);
    IoOp rcv;
    rcv.fd = peer_fds_[static_cast<size_t>(r)];
    rcv.send = false;
    rcv.buf = reinterpret_cast<char*>(scratch_.data() +
                                      static_cast<size_t>(r) * kBucketFloats);
    rcv.bytes = bytes;
    ops.push_back(rcv);
  }
  pump_io(ops, "allreduce");
}

void Communicator::allreduce_sum(float* data, int64_t n) {
  if (world_ <= 1) return;
  for (int64_t off = 0; off < n; off += kBucketFloats) {
    const int64_t c = std::min<int64_t>(kBucketFloats, n - off);
    if (transport_ == Transport::kShm) {
      std::memcpy(slot(rank_), data + off,
                  static_cast<size_t>(c) * sizeof(float));
      barrier();  // all slots written
      // Every rank computes the identical left-to-right rank-ordered sum of
      // each element: this order IS the determinism contract, and it matches
      // single-process micro-batch accumulation.
      rank_ordered_sum(data + off, slot(0), kBucketFloats, world_, c);
      barrier();  // all ranks done reading; slots reusable
    } else {
      exchange_chunk(data + off, c);
      rank_ordered_sum(data + off, scratch_.data(), kBucketFloats, world_, c);
    }
  }
}

void Communicator::broadcast(float* data, int64_t n, int root) {
  if (world_ <= 1) return;
  for (int64_t off = 0; off < n; off += kBucketFloats) {
    const int64_t c = std::min<int64_t>(kBucketFloats, n - off);
    const size_t bytes = static_cast<size_t>(c) * sizeof(float);
    if (transport_ == Transport::kShm) {
      if (rank_ == root) std::memcpy(slot(root), data + off, bytes);
      barrier();
      if (rank_ != root) std::memcpy(data + off, slot(root), bytes);
      barrier();
    } else {
      std::vector<IoOp> ops;
      if (rank_ == root) {
        for (int r = 0; r < world_; ++r) {
          if (r == root) continue;
          IoOp snd;
          snd.fd = peer_fds_[static_cast<size_t>(r)];
          snd.send = true;
          snd.cbuf = reinterpret_cast<const char*>(data + off);
          snd.bytes = bytes;
          ops.push_back(snd);
        }
      } else {
        IoOp rcv;
        rcv.fd = peer_fds_[static_cast<size_t>(root)];
        rcv.send = false;
        rcv.buf = reinterpret_cast<char*>(data + off);
        rcv.bytes = bytes;
        ops.push_back(rcv);
      }
      pump_io(ops, "broadcast");
    }
  }
}

}  // namespace apollo::dist
