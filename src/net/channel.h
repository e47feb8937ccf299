// Blocking point-to-point message channel — the in-process
// shared-memory transport primitive. Semantics follow MPI two-sided
// messaging (cooperative send/recv, FIFO per (source, tag) pair), per
// the message-passing model the HPC guides describe.
//
// It sits under the transport abstraction (net/transport.h) next to
// the socket backend; the in-process World (dist/comm.h) uses it too.
//
// Internally every message travels as a Packet carrying a per-channel
// sequence number and an optional payload checksum; the plain
// send()/recv() Message API ignores both, while World's guarded mode
// (dist/comm.h) uses them to detect dropped, duplicated, reordered,
// and corrupted messages. hold_packet() parks one packet until the
// next send on the channel — the reorder fault primitive. close()
// gives the socket backend's EOF an in-process equivalent: receivers
// drain the queue, then observe the closed state instead of blocking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/types.h"

namespace ccovid::net {

using Message = std::vector<real_t>;

struct Packet {
  Message payload;
  std::uint64_t seq = 0;       ///< per-channel monotonic sender sequence
  std::uint64_t checksum = 0;  ///< FNV-1a of payload bytes; 0 = unguarded
};

class Channel {
 public:
  /// Enqueues a message (moves the payload). Consumes a sequence number
  /// so guarded and unguarded senders can interleave consistently.
  void send(Message msg) {
    Packet p;
    p.payload = std::move(msg);
    {
      std::lock_guard<std::mutex> lock(mu_);
      p.seq = send_seq_++;
      enqueue_locked(std::move(p));
    }
    // notify_all, not notify_one: guarded (recv_packet_for) and
    // unguarded (recv) receivers share one condition variable, and a
    // timed waiter can consume a notification on its timeout path
    // without taking the packet it was woken for — with notify_one that
    // wake is spent and a second blocked receiver stays parked until
    // the next send. Waking every waiter costs a predicate re-check;
    // stranding a consumer costs a guard timeout.
    cv_.notify_all();
  }

  /// Blocks until a message is available; FIFO order. Throws when the
  /// channel is closed and drained (dist never closes its channels, so
  /// the in-process World keeps its original blocking semantics).
  Message recv() { return recv_packet().payload; }

  /// Non-blocking probe.
  bool has_message() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !queue_.empty();
  }

  // --- packet API (guarded transport + fault injection) ---

  /// Consumes the next sender-side sequence number. A consumed seq that
  /// is never enqueued IS the drop fault: the receiver observes the gap.
  std::uint64_t allocate_seq() {
    std::lock_guard<std::mutex> lock(mu_);
    return send_seq_++;
  }

  /// Enqueues `p`, then flushes any held packet behind it (completing a
  /// reorder: the held packet is delivered out of sequence order).
  void send_packet(Packet p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      enqueue_locked(std::move(p));
    }
    cv_.notify_all();
  }

  /// Parks `p` until the next send_packet() on this channel. A held
  /// packet that is never flushed is lost (guarded receivers time out).
  void hold_packet(Packet p) {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = std::move(p);
  }

  Packet recv_packet() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) {
      throw std::runtime_error("Channel::recv: channel closed");
    }
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    return p;
  }

  /// nullopt when nothing arrives within the timeout, or immediately
  /// when the channel is closed and drained (check closed() to tell the
  /// two apart — the socket backend's EOF vs poll-timeout distinction).
  std::optional<Packet> recv_packet_for(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                 [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    return p;
  }

  /// Marks the channel closed (the in-process EOF): senders may not
  /// enqueue further, parked receivers wake, and once the queue drains
  /// recv_packet_for reports nullopt immediately instead of waiting.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  enum class SeqCheck { kOk, kDuplicate, kOutOfOrder };

  /// Receiver-side in-order verification: compares `seq` against the
  /// next expected sequence number and advances past it, so after a
  /// detected (and thrown) gap the channel is not permanently poisoned.
  SeqCheck check_recv_seq(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    if (seq < recv_seq_) return SeqCheck::kDuplicate;
    const bool in_order = seq == recv_seq_;
    recv_seq_ = seq + 1;
    return in_order ? SeqCheck::kOk : SeqCheck::kOutOfOrder;
  }

 private:
  // Pre: mu_ held.
  void enqueue_locked(Packet p) {
    queue_.push_back(std::move(p));
    if (held_) {
      queue_.push_back(std::move(*held_));
      held_.reset();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Packet> queue_;
  std::optional<Packet> held_;
  bool closed_ = false;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace ccovid::net
