// In-process message-passing world: N ranks (threads) exchanging typed
// float payloads over point-to-point channels, with barrier and
// broadcast. This is the gloo/MPI stand-in used by the distributed
// data-parallel trainer (§4.1): the semantics (cooperative two-sided
// messaging, synchronous collectives) match, only the transport is
// shared memory. The all-reduce family layered on these channels lives
// in dist/collective.h.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/error.h"

namespace ccovid::dist {

/// The guard knobs and error taxonomy are transport-independent (PR 6):
/// they moved to net/error.h so the socket frame protocol surfaces the
/// same typed kTimeout / kDuplicate / kOutOfOrder / kCorrupt faults as
/// this in-process World. GuardOptions::recv_timeout_s now defaults
/// from the CCOVID_RECV_TIMEOUT environment variable (else 2 s) and is
/// settable per tool via --recv-timeout.
using GuardOptions = net::GuardOptions;
using CommError = net::CommError;
using Message = net::Message;

class World {
 public:
  explicit World(int world_size);

  int size() const { return size_; }

  /// Point-to-point: FIFO per (from, to) pair.
  void send(int from, int to, Message msg);
  Message recv(int at, int from);

  /// Blocks until all ranks arrive (reusable).
  void barrier();

  /// Broadcast from `root`: every rank calls with a same-length buffer;
  /// on return all buffers equal the root's. Linear fan-out over the
  /// point-to-point channels (how DDP ships initial weights).
  void broadcast(int rank, int root, std::vector<real_t>& data);

  /// Bytes sent per rank over all collectives so far.
  std::uint64_t bytes_sent(int rank) const;

  /// Byte-accounting hook for collectives layered on the point-to-point
  /// API (dist/collective.cpp): counts `bytes` against `rank`'s sent
  /// total, exactly as broadcast() does internally.
  void note_sent(int rank, std::uint64_t bytes) {
    bytes_[static_cast<std::size_t>(rank)].fetch_add(bytes);
  }

  /// Enables/disables guarded transport for subsequent send/recv calls.
  /// Set before the ranks start communicating — not thread-safe against
  /// in-flight traffic.
  void set_guard(GuardOptions g) { guard_ = g; }
  const GuardOptions& guard() const { return guard_; }

 private:
  net::Channel& channel(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) * size_ + to];
  }

  GuardOptions guard_;
  int size_;
  // channels_[from * size + to]
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::vector<std::atomic<std::uint64_t>> bytes_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  int barrier_generation_ = 0;
};

}  // namespace ccovid::dist
