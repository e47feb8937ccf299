#include "dist/comm.h"

#include <stdexcept>
#include <utility>

#include "core/digest.h"
#include "fault/failpoint.h"

namespace ccovid::dist {

namespace {

std::uint64_t payload_digest(const Message& m) {
  return fnv1a64(m.data(), m.size() * sizeof(real_t));
}

}  // namespace

World::World(int world_size) : size_(world_size), bytes_(world_size) {
  if (world_size < 1) throw std::invalid_argument("World: size must be >= 1");
  channels_.resize(static_cast<std::size_t>(size_) * size_);
  for (auto& c : channels_) c = std::make_unique<net::Channel>();
  for (auto& b : bytes_) b.store(0);
}

void World::send(int from, int to, Message msg) {
  if (from < 0 || from >= size_ || to < 0 || to >= size_) {
    throw std::invalid_argument("World::send: bad rank");
  }
  net::Channel& ch = channel(from, to);
  if (!guard_.enabled && !fault::Registry::any_armed()) {
    ch.send(std::move(msg));  // bare fast path
    return;
  }

  net::Packet p;
  p.payload = std::move(msg);
  p.seq = ch.allocate_seq();
  // Checksum BEFORE fault injection: a corruption models an on-the-wire
  // bit flip after the NIC computed the frame check, so the receiver's
  // recomputation must disagree.
  if (guard_.enabled) p.checksum = payload_digest(p.payload);

  // Transport faults, evaluated on the sender thread (ordinal = sender
  // rank for thread(I) filters). Use a thread(from) filter to fault one
  // rank's uplink only.
  if (auto f = CCOVID_FAILPOINT_FIRED("dist.msg.corrupt")) {
    fault::corrupt_bytes(p.payload.data(),
                         p.payload.size() * sizeof(real_t), f.seed,
                         f.count);
  }
  if (CCOVID_FAILPOINT_FIRED("dist.msg.drop")) {
    return;  // seq consumed but never delivered: the receiver sees a gap
  }
  if (CCOVID_FAILPOINT_FIRED("dist.msg.reorder")) {
    ch.hold_packet(std::move(p));  // delivered after the NEXT send
    return;
  }
  if (CCOVID_FAILPOINT_FIRED("dist.msg.dup")) {
    ch.send_packet(p);  // same seq delivered twice, like a network dup
  }
  ch.send_packet(std::move(p));
}

Message World::recv(int at, int from) {
  if (at < 0 || at >= size_ || from < 0 || from >= size_) {
    throw std::invalid_argument("World::recv: bad rank");
  }
  net::Channel& ch = channel(from, at);
  if (!guard_.enabled) return ch.recv();

  auto p = ch.recv_packet_for(guard_.recv_timeout_s);
  if (!p) {
    throw CommError(CommError::Kind::kTimeout, at, from,
                    "no message within " +
                        std::to_string(guard_.recv_timeout_s) +
                        "s (sender dead, stalled, or message dropped)");
  }
  switch (ch.check_recv_seq(p->seq)) {
    case net::Channel::SeqCheck::kOk:
      break;
    case net::Channel::SeqCheck::kDuplicate:
      throw CommError(CommError::Kind::kDuplicate, at, from,
                      "seq " + std::to_string(p->seq) + " seen again");
    case net::Channel::SeqCheck::kOutOfOrder:
      throw CommError(CommError::Kind::kOutOfOrder, at, from,
                      "seq " + std::to_string(p->seq) +
                          " arrived ahead of an undelivered predecessor "
                          "(reordered or dropped message)");
  }
  if (p->checksum != payload_digest(p->payload)) {
    throw CommError(CommError::Kind::kCorrupt, at, from,
                    "payload checksum mismatch on seq " +
                        std::to_string(p->seq));
  }
  return std::move(p->payload);
}

void World::barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const int gen = barrier_generation_;
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [this, gen] { return gen != barrier_generation_; });
  }
}

void World::broadcast(int rank, int root, std::vector<real_t>& data) {
  if (size_ == 1) return;
  if (root < 0 || root >= size_) {
    throw std::invalid_argument("World::broadcast: bad root");
  }
  if (rank == root) {
    for (int r = 0; r < size_; ++r) {
      if (r == root) continue;
      Message out(data.begin(), data.end());
      bytes_[rank].fetch_add(out.size() * sizeof(real_t));
      send(rank, r, std::move(out));
    }
  } else {
    Message in = recv(rank, root);
    if (in.size() != data.size()) {
      throw std::runtime_error("World::broadcast: length mismatch");
    }
    std::copy(in.begin(), in.end(), data.begin());
  }
}

std::uint64_t World::bytes_sent(int rank) const {
  return bytes_[rank].load();
}

}  // namespace ccovid::dist
