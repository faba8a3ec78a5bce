// Synchronous-round message fabric.
//
// SNAP's system model assumes a shared global clock with RIP-style
// periodic exchange (paper §II-B / §IV-D): every round, each node posts
// frames to its peers, then all nodes read what arrived. RoundMailbox<T>
// implements exactly that contract for an arbitrary typed payload —
// messages posted during round r become visible when the round is
// flipped, and each node drains its own inbox. Lost frames (stragglers)
// are modeled by the sender consulting LinkFailureModel before posting;
// the mailbox itself is reliable and in-order per sender.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "topology/graph.hpp"

namespace snap::net {

template <typename Payload>
class RoundMailbox {
 public:
  struct Message {
    topology::NodeId from = 0;
    Payload payload;
  };

  explicit RoundMailbox(std::size_t node_count)
      : outgoing_(node_count), incoming_(node_count) {}

  std::size_t node_count() const noexcept { return incoming_.size(); }

  /// Queues a message for delivery at the next flip. Sending to self is
  /// allowed but almost always a bug in a consensus algorithm, so it is
  /// rejected.
  void post(topology::NodeId from, topology::NodeId to, Payload payload) {
    SNAP_REQUIRE(from < node_count() && to < node_count());
    SNAP_REQUIRE_MSG(from != to, "node " << from << " messaging itself");
    outgoing_[to].push_back(Message{from, std::move(payload)});
  }

  /// Ends the send phase: everything posted becomes readable, and the
  /// outgoing buffers reset for the next round. Swapping (rather than
  /// move-assigning) keeps both buffers' capacity, so a steady round
  /// posts without growing any vector.
  void flip_round() {
    for (std::size_t node = 0; node < incoming_.size(); ++node) {
      incoming_[node].swap(outgoing_[node]);
      outgoing_[node].clear();
    }
  }

  /// Messages delivered to `node` in the last flipped round.
  const std::vector<Message>& inbox(topology::NodeId node) const {
    SNAP_REQUIRE(node < node_count());
    return incoming_[node];
  }

 private:
  std::vector<std::vector<Message>> outgoing_;
  std::vector<std::vector<Message>> incoming_;
};

}  // namespace snap::net
