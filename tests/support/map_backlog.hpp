// Test oracle for core::LinkBacklog: the map-backed per-link backlog the
// trainer used before the flat sorted runs.
//
// Each directed link keeps a std::map<index, value>; a batch is merged
// by assigning every update (last write wins), and a frame is the map
// walked in key order. The checkpoint format is the one the trainer
// wrote: per node, the link count, then per link in ascending neighbor
// order the neighbor id, the entry count and the (u32, f64) pairs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/binary_io.hpp"
#include "linalg/vector.hpp"
#include "net/frame.hpp"
#include "topology/graph.hpp"

namespace snap::testing {

class MapBacklog {
 public:
  explicit MapBacklog(std::size_t node_count) : backlog_(node_count) {}

  void merge(topology::NodeId from, topology::NodeId to,
             std::span<const net::ParamUpdate> updates) {
    auto& queued = backlog_[from][to];
    for (const net::ParamUpdate& u : updates) queued[u.index] = u.value;
  }

  std::vector<net::ParamUpdate> take(topology::NodeId from,
                                     topology::NodeId to) {
    auto& queued = backlog_[from][to];
    std::vector<net::ParamUpdate> frame;
    frame.reserve(queued.size());
    for (const auto& [index, value] : queued) frame.push_back({index, value});
    queued.clear();
    return frame;
  }

  void prime(topology::NodeId from, topology::NodeId to,
             const linalg::Vector& x) {
    auto& queued = backlog_[from][to];
    for (std::uint32_t p = 0; p < x.size(); ++p) queued[p] = x[p];
  }

  void clear(topology::NodeId from, topology::NodeId to) {
    backlog_[from][to].clear();
  }

  void save(common::ByteWriter& writer) const {
    for (const auto& links : backlog_) {
      std::vector<topology::NodeId> keys;
      keys.reserve(links.size());
      for (const auto& [j, merged] : links) keys.push_back(j);
      std::sort(keys.begin(), keys.end());
      writer.write_u64(keys.size());
      for (const topology::NodeId j : keys) {
        const auto& merged = links.at(j);
        writer.write_u64(j);
        writer.write_u64(merged.size());
        for (const auto& [index, value] : merged) {
          writer.write_u32(index);
          writer.write_f64(value);
        }
      }
    }
  }

 private:
  std::vector<std::unordered_map<topology::NodeId,
                                 std::map<std::uint32_t, double>>>
      backlog_;
};

}  // namespace snap::testing
