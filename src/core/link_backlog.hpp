// Per-directed-link transmit backlog (paper §II-B persistent links).
//
// Peers talk over persistent TCP connections, so a round in which a
// link cannot carry its frame (down, pruned, not activated by gossip)
// delays the frame rather than destroying it: the updates it would have
// carried are merged, last-write-wins per parameter, into the next frame
// on that link. LinkBacklog holds those pending updates.
//
// Storage is one index-sorted run of ParamUpdate per link. A node's
// links sit in a small vector sorted by neighbor id, so a backlog
// survives a neighbor's detach/re-attach across membership epochs.
// collect_updates emits batches in ascending index order, so merging a
// batch is a linear two-pointer walk (the new value wins a tie), and a
// run drains into a frame by moving the vector out — already in the
// ascending order the frame codec and the receivers expect. That order
// is part of the bitwise contract: it is exactly the iteration order of
// the std::map this storage replaced (tests/support/map_backlog.hpp
// keeps that map as the oracle).
//
// Links are created on first use and never erased, and save() writes
// every created link, empty or not, so checkpoint blobs carry the same
// bytes as the map-backed format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "linalg/vector.hpp"
#include "net/frame.hpp"
#include "topology/graph.hpp"

namespace snap::core {

class LinkBacklog {
 public:
  using Run = std::vector<net::ParamUpdate>;

  LinkBacklog(std::size_t node_count, std::uint32_t total_params);

  /// Merges an index-ascending batch into link (from → to), the batch's
  /// value winning on equal indices, and returns the link's run. Move
  /// the run out (std::exchange) to send it.
  Run& merge(topology::NodeId from, topology::NodeId to,
             std::span<const net::ParamUpdate> sorted);

  /// Replaces the run with the full vector `x`: a fresh link's first
  /// frame carries the complete model (join priming).
  void prime(topology::NodeId from, topology::NodeId to,
             const linalg::Vector& x);

  /// Drops the link's pending updates (superseded by a STATE_SYNC).
  void clear(topology::NodeId from, topology::NodeId to);

  /// Per node: link count, then per link in ascending neighbor order the
  /// neighbor id, the entry count and the (u32 index, f64 value) pairs.
  void save(common::ByteWriter& writer) const;

  /// Reads save()'s format. Rejects (returns false, leaving the backlog
  /// untouched) a truncated blob, neighbor ids that are not strictly
  /// ascending or ≥ node_count, and entries that are not strictly
  /// ascending or have index ≥ total_params.
  bool load(common::ByteReader& reader);

  /// Last-write-wins merge of two index-ascending runs into `run`.
  static void merge_sorted(Run& run, std::span<const net::ParamUpdate> sorted);

 private:
  using Links = std::vector<std::pair<topology::NodeId, Run>>;

  Run& run_of(topology::NodeId from, topology::NodeId to);

  std::uint32_t total_params_;
  std::vector<Links> links_;
};

}  // namespace snap::core
