#include "core/snap_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_reprojection.hpp"
#include "core/link_backlog.hpp"
#include "net/cost_model.hpp"
#include "net/fault_injector.hpp"
#include "net/frame.hpp"
#include "net/socket_transport.hpp"
#include "runtime/make_fabric.hpp"

namespace snap::core {

namespace {

// What SNAP puts on the wire. A regular frame is a (possibly filtered)
// batch of parameter updates; a STATE_SYNC frame is a full-model
// warm-start handoff to a joiner, flagged in-band so the receiver
// adopts it immediately instead of queueing it as a round frame.
struct SnapWire {
  std::vector<net::ParamUpdate> updates;
  bool state_sync = false;
};

// Reported aggregates fold only *alive* nodes — a crashed node's frozen
// iterate would drag the mean toward wherever it died. An all-dead mask
// degenerates to all nodes so the last report stays finite. Fault-free
// (mask all-true) every fold is bitwise the pre-fault original.
bool all_dead(const std::vector<bool>& alive) {
  return std::none_of(alive.begin(), alive.end(), [](bool a) { return a; });
}

double residual_of(const std::vector<SnapNode>& nodes,
                   const std::vector<bool>& alive, const linalg::Vector& mean,
                   common::ThreadPool& pool) {
  const bool use_all = all_dead(alive);
  return common::ordered_parallel_max(pool, nodes.size(), [&](std::size_t i) {
    if (!use_all && !alive[i]) return 0.0;
    return linalg::max_abs_diff(nodes[i].params(), mean);
  });
}

double mean_local_loss(const std::vector<SnapNode>& nodes,
                       const std::vector<bool>& alive,
                       const linalg::Vector& at, common::ThreadPool& pool) {
  const bool use_all = all_dead(alive);
  std::size_t count = 0;
  const double total =
      common::ordered_parallel_sum(pool, nodes.size(), [&](std::size_t i) {
        return (use_all || alive[i]) ? nodes[i].local_loss(at) : 0.0;
      });
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    count += (use_all || alive[i]) ? 1 : 0;
  }
  return total / static_cast<double>(count);
}

/// Splits CSR row i into the aligned (neighbors, weights, self) triple
/// the SnapNode fast path consumes. CSR columns are index-sorted, so
/// the neighbor list comes out sorted for free.
struct AlignedRow {
  std::vector<topology::NodeId> neighbors;
  std::vector<double> weights;
  double self = 0.0;
};

AlignedRow split_row(const consensus::SparseWeightMatrix& w,
                     topology::NodeId i) {
  const auto row = w.row(i);
  AlignedRow out;
  out.neighbors.reserve(row.cols.size() - 1);
  out.weights.reserve(row.cols.size() - 1);
  for (std::size_t k = 0; k < row.cols.size(); ++k) {
    if (row.cols[k] == i) {
      out.self = row.values[k];
    } else {
      out.neighbors.push_back(row.cols[k]);
      out.weights.push_back(row.values[k]);
    }
  }
  return out;
}

/// Slot of j in a sorted neighbor list, or npos when absent.
std::size_t slot_in(const std::vector<topology::NodeId>& neighbors,
                    topology::NodeId j) {
  const auto it = std::lower_bound(neighbors.begin(), neighbors.end(), j);
  if (it == neighbors.end() || *it != j) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(it - neighbors.begin());
}

}  // namespace

SnapTrainer::SnapTrainer(const topology::Graph& graph,
                         const linalg::Matrix& w, const ml::Model& model,
                         std::vector<data::Dataset> shards,
                         SnapTrainerConfig config)
    : graph_(&graph),
      model_(&model),
      shards_(std::move(shards)),
      config_(config) {
  SNAP_REQUIRE(config_.alpha > 0.0);
  SNAP_REQUIRE_MSG(shards_.size() == graph.node_count(),
                   "one shard per node required");
  SNAP_REQUIRE_MSG(consensus::is_feasible_weight_matrix(w, graph, 1e-6),
                   "W is not feasible for this topology");
  // Feasibility bounds off-support entries by tol, so the restriction
  // onto the graph pattern carries the same weights the dense run used.
  w_ = consensus::SparseWeightMatrix::from_dense(w, graph);
}

SnapTrainer::SnapTrainer(const topology::Graph& graph,
                         const consensus::SparseWeightMatrix& w,
                         const ml::Model& model,
                         std::vector<data::Dataset> shards,
                         SnapTrainerConfig config)
    : graph_(&graph),
      w_(w),
      model_(&model),
      shards_(std::move(shards)),
      config_(config) {
  SNAP_REQUIRE(config_.alpha > 0.0);
  SNAP_REQUIRE_MSG(shards_.size() == graph.node_count(),
                   "one shard per node required");
  SNAP_REQUIRE_MSG(consensus::is_feasible_weight_matrix(w_, graph, 1e-6),
                   "W is not feasible for this topology");
}

TrainResult SnapTrainer::train(const data::Dataset& test) {
  SNAP_REQUIRE_MSG(!trained_,
                   "SnapTrainer is one-shot: shards were consumed by the "
                   "previous train() call");
  trained_ = true;
  const std::size_t n = graph_->node_count();
  common::Rng rng(config_.seed);

  const bool sparsify_on = config_.sparsify.enabled;
  if (sparsify_on) {
    SNAP_REQUIRE_MSG(config_.fabric != runtime::FabricKind::kAsync,
                     "topology sparsification requires a sync or gossip "
                     "fabric (pruned-link duty cycling is round-aligned)");
  }

  // Per-node per-round compute cost for the sync sim-clock — the
  // slowest node (largest shard) bounds the shared round.
  std::size_t max_shard = 0;
  for (const auto& shard : shards_) {
    max_shard = std::max(max_shard, shard.size());
  }

  // Fault schedule. The legacy Fig. 9 straggler knob folds into the
  // general plan as a memoryless link chain — same fork, same draw
  // stream — so existing seeds reproduce their LinkFailureModel
  // schedules bit for bit. (Built ahead of the nodes so the sparsifier
  // can see the initial membership; rng.fork is a pure function of
  // (seed, tag), so hoisting it never shifts any stream.)
  net::FaultPlan plan = config_.faults;
  if (config_.link_failure_probability > 0.0 &&
      plan.link_enter_burst == 0.0) {
    const net::FaultPlan legacy =
        net::FaultPlan::memoryless_links(config_.link_failure_probability);
    plan.link_enter_burst = legacy.link_enter_burst;
    plan.link_exit_burst = legacy.link_exit_burst;
  }
  std::optional<net::FaultInjector> injector;
  if (plan.any()) injector.emplace(*graph_, plan, rng.fork("links"));

  // Membership as the scheme currently believes it: flipped only by
  // *confirmed* churn deltas (on_churn below), never by transient
  // blips. Latent elastic-membership joiners start outside the
  // membership and flip in when their join is announced.
  std::vector<bool> alive(n, true);
  if (injector) {
    for (topology::NodeId i = 0; i < n; ++i) {
      alive[i] = injector->initial_member(i);
    }
  }

  // Cost-aware sparsification state. `pruned_keys` is the canonical
  // pruned-link set (FaultInjector::link_key encoding); `link_pruned`
  // is its per-node slot-aligned projection, the O(1) gate collect
  // checks per frame. The schedule consumes no randomness —
  // sparsify_topology is a pure function of (graph, alive, labels,
  // config) — so it replays bitwise on every fabric, shard, and resume.
  std::vector<std::vector<std::uint8_t>> link_pruned(sparsify_on ? n : 0);
  std::unordered_set<std::uint64_t> pruned_keys;
  std::uint64_t links_pruned_stat = 0;
  std::uint64_t effective_edges_stat = 0;
  double slem_after_prune_stat = 0.0;
  const auto apply_sparsifier = [&](const topology::Graph& g,
                                    const std::vector<std::size_t>& labels) {
    consensus::SparsifierResult pruned =
        labels.empty()
            ? consensus::sparsify_topology(g, alive, config_.sparsify)
            : consensus::sparsify_topology(g, alive, labels,
                                           config_.sparsify);
    w_ = std::move(pruned.w);
    pruned_keys.clear();
    const auto& edges = g.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (pruned.edge_kept[e]) continue;
      pruned_keys.insert(
          net::FaultInjector::link_key(edges[e].first, edges[e].second));
    }
    if (injector) injector->set_pruned_links(pruned_keys);
    links_pruned_stat = pruned.links_pruned;
    effective_edges_stat = pruned.effective_edges;
    slem_after_prune_stat = pruned.slem_after;
  };
  // Initial prune, before the nodes consume their rows: the provided W
  // is replaced with the sparsifier's re-derived one. Pruned entries
  // are structural zeros, so every neighbor slot stays aligned with the
  // full topology.
  if (sparsify_on) apply_sparsifier(*graph_, {});

  // Build nodes with their weight rows — each row is one CSR row view
  // split around the diagonal, already index-sorted and aligned.
  std::vector<SnapNode> nodes;
  nodes.reserve(n);
  for (topology::NodeId i = 0; i < n; ++i) {
    AlignedRow row = split_row(w_, i);
    nodes.emplace_back(i, *model_, std::move(shards_[i]),
                       std::move(row.neighbors), std::move(row.weights),
                       row.self, config_.straggler_policy);
  }

  // Slot-aligned projection of pruned_keys onto each node's current
  // neighbor list; rebuilt whenever either side changes (sparsifier
  // epochs, checkpoint restore).
  const auto rebuild_pruned_masks = [&] {
    if (!sparsify_on) return;
    for (topology::NodeId i = 0; i < n; ++i) {
      const auto& my_neighbors = nodes[i].neighbors();
      link_pruned[i].assign(my_neighbors.size(), 0);
      for (std::size_t s = 0; s < my_neighbors.size(); ++s) {
        if (pruned_keys.contains(
                net::FaultInjector::link_key(i, my_neighbors[s]))) {
          link_pruned[i][s] = 1;
        }
      }
    }
  };
  rebuild_pruned_masks();

  // Shared initial model (every edge server starts from the same copy of
  // the uniform model, §II-B).
  common::Rng init_rng = rng.fork("init");
  const linalg::Vector x0 = model_->initial_params(init_rng);
  for (auto& node : nodes) node.set_initial(x0);

  // Per-node APE controllers (fully local, §IV-C). Armed lazily after
  // the warmup so the 10%-of-mean-|parameter| budget reflects the
  // model's working scale rather than the near-zero initialization.
  std::vector<std::optional<ApeController>> ape(n);

  const auto total_params =
      static_cast<std::uint32_t>(model_->param_count());

  // Per-directed-link transmit backlog. Peers talk over persistent TCP
  // connections (§II-B), so a congested round delays a frame rather than
  // destroying it: updates that could not be sent are merged
  // (last-write-wins per parameter) into the next frame on that link.
  LinkBacklog backlog(n, total_params);

  // Local round counter per node: equals the fabric's global round
  // under sync execution, free-runs under async. Drives APE warmup.
  std::vector<std::size_t> rounds(n, 0);
  bool restarted = false;
  const bool async_mode = config_.fabric == runtime::FabricKind::kAsync;
  const bool gossip_mode = config_.fabric == runtime::FabricKind::kGossip;
  // Round-aligned async (the default): EXTRA's corrected recursion
  // telescopes only if node i's round-k update consumes each neighbor's
  // round-(k-1) frame exactly once — views that skip or double-consume
  // a neighbor round feed a persistent error through the accumulator
  // and the run diverges (empirically: hetero spread 2.0 blows the loss
  // up by 5-6 orders of magnitude). So each receiver queues arriving
  // frames per link and applies exactly one per neighbor at the top of
  // its next update; the ready gate parks a node until every neighbor
  // queue is non-empty. No global barrier, no incast hub — each
  // neighborhood paces itself — and the resulting parameter trajectory
  // is the sync one, reached on an event-driven clock. Free-run mode
  // bypasses the queues and mixes whatever is freshest.
  const bool paced = async_mode && !config_.async_free_run;
  std::vector<std::unordered_map<
      topology::NodeId, std::deque<std::vector<net::ParamUpdate>>>>
      pending(paced ? n : 0);

  using Payload = SnapWire;

  runtime::FabricConfig fabric_config;
  fabric_config.threads = config_.threads;
  fabric_config.graph = graph_;
  fabric_config.convergence = config_.convergence;
  fabric_config.eval = config_.eval;
  fabric_config.timing = config_.timing;
  fabric_config.round_compute_flops =
      runtime::gradient_flops(model_->param_count(), max_shard);
  fabric_config.faults = injector ? &*injector : nullptr;
  fabric_config.recovery = config_.recovery;
  if (config_.checkpoint.every > 0 || config_.checkpoint.resume) {
    SNAP_REQUIRE_MSG(config_.fabric != runtime::FabricKind::kAsync,
                     "checkpointing requires a sync or gossip fabric "
                     "(the async event clock has no round boundary to "
                     "align a checkpoint to)");
  }
  fabric_config.checkpoint = config_.checkpoint;
  runtime::GossipConfig gossip_config = config_.gossip;
  if (gossip_config.seed == 0) gossip_config.seed = config_.seed;

  // Socket-backed runs move frames through the real SNAP wire encoding:
  // regular frames via the two-format §IV-C codec, STATE_SYNC handoffs
  // via the checksummed dense frame. encode() produces exactly the
  // bytes the accounting charges (encoded_frame_bytes /
  // state_sync_frame_bytes) — the per-frame parity the oracle test
  // asserts against the hub's wire counters.
  std::unique_ptr<net::Transport<Payload>> transport;
  net::SocketTransport<Payload>* socket = nullptr;
  if (config_.transport.kind != net::TransportKind::kSim) {
    SNAP_REQUIRE_MSG(config_.fabric != runtime::FabricKind::kAsync,
                     "socket transports require a sync or gossip fabric "
                     "(async delivery is native to the event queue)");
    net::TransportConfig transport_config = config_.transport;
    // Rendezvous reconnects reuse the fault layer's backoff semantics:
    // first retry after retry_backoff_s, doubling per attempt, capped at
    // max_backoff_s (the dial loop saturates instead of overflowing).
    transport_config.retry_backoff_s = config_.recovery.retry_backoff_s;
    transport_config.max_backoff_s = config_.recovery.max_backoff_s;
    net::WireCodec<Payload> codec;
    codec.encode = [total_params](const Payload& wire) {
      if (wire.state_sync) {
        std::vector<double> values;
        values.reserve(wire.updates.size());
        for (const net::ParamUpdate& u : wire.updates) {
          SNAP_REQUIRE(u.index == values.size());
          values.push_back(u.value);
        }
        return net::encode_state_sync_frame(values);
      }
      return net::encode_update_frame(total_params, wire.updates);
    };
    codec.decode =
        [total_params](
            std::span<const std::byte> bytes) -> std::optional<Payload> {
      if (bytes.empty()) return std::nullopt;
      if (static_cast<std::uint8_t>(bytes.front()) == net::kStateSyncTag) {
        std::optional<std::vector<double>> values =
            net::decode_state_sync_frame(bytes);
        if (!values.has_value()) return std::nullopt;
        Payload wire;
        wire.state_sync = true;
        wire.updates.reserve(values->size());
        for (std::size_t d = 0; d < values->size(); ++d) {
          wire.updates.push_back(
              {static_cast<std::uint32_t>(d), (*values)[d]});
        }
        return wire;
      }
      std::optional<net::UpdateFrame> frame = net::decode_update_frame(bytes);
      if (!frame.has_value() || frame->total_params != total_params) {
        return std::nullopt;
      }
      return Payload{std::move(frame->updates), false};
    };
    auto socket_transport = std::make_unique<net::SocketTransport<Payload>>(
        n, transport_config, std::move(codec));
    socket = socket_transport.get();
    transport = std::move(socket_transport);
  }

  auto fabric =
      runtime::make_fabric<Payload>(config_.fabric, fabric_config,
                                    config_.async, gossip_config,
                                    std::move(transport));

  // The whole algorithm as phase hooks; the fabric owns the clock, the
  // transport, the accounting, and the convergence detector.
  runtime::RoundHooks<Payload> hooks;
  hooks.node_count = n;

  // The fabric materializes the fault schedule (ensure_round) before any
  // phase runs; the trainer only tracks the shared-clock round so sync
  // collect queries link state at the round the fabric posts against (a
  // node that slept through crashes has a lagging local counter). Async
  // has no shared clock — there each node's own round is the sender
  // round the fabric checks.
  std::size_t global_round = 0;
  hooks.begin_round = [&](std::size_t round) { global_round = round; };

  // Gossip activation state. `link_active[i][s]` (s = the neighbor's
  // slot in node i's sorted neighbor list — O(deg) per node, not O(n))
  // gates collect for the round being sent; `prev_links` is the
  // previous round's activation — the links whose frames populated the
  // views the *current* round's update mixes, hence the support of the
  // effective rows applied in on_activation below.
  std::vector<std::vector<std::uint8_t>> link_active(gossip_mode ? n : 0);
  std::vector<runtime::ActivatedLink> prev_links;
  // Scratch for the per-tick effective rows (activated degree, aligned
  // neighbor weights, diagonal), reused across rounds.
  std::vector<std::size_t> activated_degree(gossip_mode ? n : 0, 0);
  std::vector<std::vector<double>> row_scratch(gossip_mode ? n : 0);
  std::vector<double> self_scratch(gossip_mode ? n : 0, 0.0);

  if (gossip_mode) {
    // Fires serially in the round preamble, after confirmed churn has
    // been surfaced (so `alive` and the node topologies are current)
    // and before any phase runs.
    hooks.on_activation = [&](std::size_t round,
                              std::span<const runtime::ActivatedLink> links) {
      // Sparsified gossip duty-cycles the pruned links out of every
      // activation *after* the scheduler drew it: the schedule itself
      // is untouched (same draws for every surviving link, bitwise the
      // unsparsified stream), the pruned links just never fire. The
      // filtered set feeds both link_active (this round's sends) and
      // prev_links (next round's rows), so a pruned link contributes
      // neither frames nor mixing weight.
      std::vector<runtime::ActivatedLink> filtered;
      if (sparsify_on && !pruned_keys.empty()) {
        filtered.reserve(links.size());
        for (const auto& [u, v] : links) {
          if (pruned_keys.contains(net::FaultInjector::link_key(u, v))) {
            continue;
          }
          filtered.push_back({u, v});
        }
        links = filtered;
      }
      // Periodic synchronized restart (GossipConfig::restart_every):
      // round-varying activations excite the neutrally-stable modes of
      // EXTRA's memory recursion — without this, the compounded error
      // surfaces as a slow exponential after a few hundred ticks.
      // Keyed on the round number alone, so every node (and every
      // replay) restarts on the same tick.
      if (config_.gossip.restart_every > 0 && round > 1 &&
          (round - 1) % config_.gossip.restart_every == 0) {
        for (topology::NodeId i = 0; i < n; ++i) {
          if (injector && !alive[i]) continue;
          nodes[i].restart();
        }
      }
      // Rebuild every member's row on the PREVIOUS activation: frames
      // sent over A_{t-1} are what this round's compute_update mixes.
      // Round 1 (empty prev_links) runs identity rows — every view
      // still equals the shared x⁰, so W·x̂ = x⁰ for any doubly
      // stochastic W and the tick is bitwise a plain gradient step.
      // The same row serves both recursion terms: W_t and W̃_t are
      // row-stochastic, so the (W_t − W_{t-1})/2 mismatch on the
      // memory term annihilates consensus vectors and the filtered
      // EXTRA fixed points survive (see DESIGN.md, "Gossip fabric").
      //
      // The rows are accumulated directly into per-node aligned slots —
      // the same weights in the same per-entry order as the dense
      // activated_mixing_matrix (degree pass, identity diagonal, then
      // one symmetric update per link in activation order), without the
      // O(n²) intermediate.
      const auto is_member = [&](topology::NodeId i) {
        return !injector || alive[i];
      };
      std::fill(activated_degree.begin(), activated_degree.end(), 0);
      for (const auto& [u, v] : prev_links) {
        if (!is_member(u) || !is_member(v)) continue;
        ++activated_degree[u];
        ++activated_degree[v];
      }
      for (topology::NodeId i = 0; i < n; ++i) {
        if (!is_member(i)) continue;
        row_scratch[i].assign(nodes[i].neighbors().size(), 0.0);
        self_scratch[i] = 1.0;
      }
      for (const auto& [u, v] : prev_links) {
        if (!is_member(u) || !is_member(v)) continue;
        const double weight =
            1.0 / (1.0 + static_cast<double>(std::max(activated_degree[u],
                                                      activated_degree[v])));
        const std::size_t su = slot_in(nodes[u].neighbors(), v);
        const std::size_t sv = slot_in(nodes[v].neighbors(), u);
        SNAP_REQUIRE_MSG(su != std::numeric_limits<std::size_t>::max() &&
                             sv != std::numeric_limits<std::size_t>::max(),
                         "activated link (" << u << "," << v
                                            << ") is not a topology edge");
        row_scratch[u][su] += weight;
        row_scratch[v][sv] += weight;
        self_scratch[u] -= weight;
        self_scratch[v] -= weight;
      }
      for (topology::NodeId i = 0; i < n; ++i) {
        if (!is_member(i)) continue;
        nodes[i].set_weight_row(row_scratch[i], self_scratch[i]);
      }
      for (topology::NodeId i = 0; i < n; ++i) {
        link_active[i].assign(nodes[i].neighbors().size(), 0);
      }
      for (const auto& [u, v] : links) {
        const std::size_t su = slot_in(nodes[u].neighbors(), v);
        const std::size_t sv = slot_in(nodes[v].neighbors(), u);
        if (su != std::numeric_limits<std::size_t>::max()) {
          link_active[u][su] = 1;
        }
        if (sv != std::numeric_limits<std::size_t>::max()) {
          link_active[v][sv] = 1;
        }
      }
      prev_links.assign(links.begin(), links.end());
    };
  }

  // 1. Local EXTRA update from the current views, then rotate the view
  // double-buffer so frames arriving for this round land "fresh". Each
  // node only touches its own state. Paced async first folds in exactly
  // one queued frame per neighbor — the round-aligned delivery the
  // recursion needs (the fabric's event loop is single-threaded, so the
  // queues are safe to touch here; sync never populates them).
  hooks.local_update = [&](topology::NodeId i) {
    if (paced && rounds[i] > 0) {
      for (const auto j : nodes[i].neighbors()) {
        auto& queued = pending[i][j];
        if (queued.empty()) {
          // Only fault runs pass the gate frameless: the neighbor is
          // dead or suspected, and kReweight folds its weight into self
          // inside compute_update. Fault-free pacing guarantees one.
          SNAP_ASSERT(injector.has_value());
          continue;
        }
        nodes[i].apply_update(j, queued.front());
        queued.pop_front();
      }
    }
    nodes[i].compute_update(config_.alpha);
    nodes[i].advance_views();
    ++rounds[i];
  };

  // 2. Filter, frame, and transmit. A link that is down this round
  // keeps its frame in the backlog and retransmits (merged) when it
  // recovers — persistent-TCP semantics; only frames actually written
  // to a live link are charged (by the fabric, off wire_bytes).
  //
  // Warmup (and non-APE modes) behave like SNAP-0: send every changed
  // parameter. The controller arms itself the first round after warmup,
  // anchored to the node's current parameter scale.
  hooks.collect = [&](topology::NodeId i) {
    const bool ape_enabled = config_.filter == FilterMode::kApe &&
                             rounds[i] > config_.ape_warmup_iterations;
    if (ape_enabled && !ape[i].has_value()) {
      const linalg::Vector& x = nodes[i].params();
      const double mean_abs =
          x.empty() ? 0.0 : x.norm1() / static_cast<double>(x.size());
      ape[i].emplace(config_.ape, mean_abs);
    }
    const FilterMode mode = config_.filter == FilterMode::kApe && !ape_enabled
                                ? FilterMode::kExactChange
                                : config_.filter;
    const double threshold = ape_enabled ? ape[i]->threshold() : 0.0;
    SnapNode::Outgoing outgoing = nodes[i].collect_updates(mode, threshold);
    if (ape_enabled) {
      // A stage advance resets the controller's APE accounting window
      // (the paper's per-stage "restart" of the error bound).
      ape[i]->record_iteration(outgoing.max_withheld);
    }
    std::vector<runtime::Envelope<Payload>> envelopes;
    const auto& my_neighbors = nodes[i].neighbors();
    envelopes.reserve(my_neighbors.size());
    for (std::size_t s = 0; s < my_neighbors.size(); ++s) {
      const topology::NodeId j = my_neighbors[s];
      LinkBacklog::Run& queued = backlog.merge(i, j, outgoing.updates);
      // A sparsifier-pruned link is silent for the whole epoch: zero
      // mixing weight (its W entry is a structural zero) and an
      // accumulating backlog, so a later epoch that re-admits the link
      // starts with one merged catch-up frame — the duty-cycle
      // semantics of a non-activated gossip link, held open-endedly.
      if (sparsify_on && link_pruned[i][s]) continue;
      // A non-activated gossip link is a deliberately silent link: the
      // backlog keeps accumulating (above) and the next activation's
      // frame carries the merged catch-up — the same persistent-TCP
      // semantics as a down link, with zero mixing weight meanwhile.
      if (gossip_mode && !link_active[i][s]) continue;
      // link_down covers both the burst chain and crashed endpoints, so
      // the backlog keeps accumulating while a neighbor is dead and the
      // first frame after its restart repairs the whole view.
      const std::size_t link_round = async_mode ? rounds[i] : global_round;
      if (injector && injector->link_down(link_round, i, j)) continue;
      // A live link always carries a frame — an empty one is the
      // heartbeat that lets the receiver distinguish "nothing above
      // threshold" from "link down" (kReweight needs to know). The
      // run moves into the frame whole, already in ascending order.
      LinkBacklog::Run frame = std::exchange(queued, {});
      const std::size_t wire_bytes =
          net::encoded_frame_bytes(total_params, frame.size());
      envelopes.push_back({j, SnapWire{std::move(frame)}, wire_bytes});
    }
    return envelopes;
  };

  // 2b. One synchronized recursion restart, the round after every
  // controller has decayed below ε. Filtered views break the
  // telescoped invariant that makes EXTRA exact, so the filtered
  // phase is treated as producing an *initial value* for one exact
  // run — "the convergence and optimality of iteration (6) has
  // nothing to do with the initial parameter values" (§IV-C). The
  // restart must be simultaneous: nodes mid-recursion mixed with
  // nodes on their first step destabilize each other. All controllers
  // share the same schedule parameters and initial model, so in a
  // real deployment each node reaches ε within a bounded window of
  // the others and can arm the restart off the shared clock.
  const auto maybe_restart = [&] {
    if (config_.filter != FilterMode::kApe || restarted) return;
    for (topology::NodeId i = 0; i < n; ++i) {
      // A crashed node's controller can never decay; only the current
      // membership has to agree. Fault-free this is the original
      // all-nodes check.
      if (injector && !alive[i]) continue;
      if (!ape[i].has_value() || ape[i]->active()) return;
    }
    for (auto& node : nodes) node.restart();
    restarted = true;
  };
  // Sync: between send and delivery, exactly the pre-refactor instant.
  hooks.after_send = maybe_restart;

  // Self-healing on confirmed churn. §IV-C gives the license: EXTRA's
  // fixed point "has nothing to do with the initial parameter values",
  // so after a membership change the members re-project W onto the
  // current topology (absent rows/columns become identity, their mass
  // redistributed) and restart the recursion from wherever they are —
  // current iterates become the new x⁰. Without this the recursion
  // keeps anchoring to an absent node's frozen parameters and the
  // persistent-view-skew divergence returns.
  //
  // A join is the growth direction of the same epoch: the injector has
  // already attached the joiner to k live neighbors, so here the
  // members (a) prime both directions of every new link with a
  // full-vector frame — the first frame on a fresh link carries the
  // complete model, not a delta against a baseline the peer never saw —
  // (b) optionally donate a STATE_SYNC warm start from one live
  // neighbor, and (c) fold the joiner into the re-projected W.
  // Shared W repair: block-diagonal re-projection over the injector's
  // component labels for `round`, then per-component EXTRA restart.
  // Idempotent within a round (same labels → same W, restart resets
  // the same counter), so the churn and partition hooks may both run
  // it at an epoch boundary without disturbing the trajectory.
  // Function-scope (not inside the injector block): the hooks below
  // capture it by reference and outlive any inner scope.
  const auto reproject_components = [&](std::size_t round) {
    constexpr std::size_t kExcluded = topology::ComponentMap::kExcluded;
    const topology::Graph& g = injector->current_graph();
    const std::vector<std::size_t>& labels =
        injector->component_labels(round);
    if (sparsify_on) {
      // Sparsifier epoch: re-prune the current effective subgraph and
      // take its re-derived W in place of the plain re-projection. The
      // labels restrict pruning within components, so the partition
      // machinery's block structure is preserved exactly; the updated
      // pruned set re-arms the injector filter and the collect masks
      // below.
      apply_sparsifier(g, labels);
    } else if (labels.empty()) {
      // Component tracking off (pure memoryless link noise): plain
      // survivor re-projection, the pre-partition semantics.
      w_ = consensus::reproject_weight_matrix_sparse(
          g, alive, config_.churn_reprojection);
    } else {
      w_ = consensus::reproject_weight_matrix_sparse(
          g, alive, labels, config_.churn_reprojection);
    }
    for (topology::NodeId i = 0; i < n; ++i) {
      if (!alive[i]) continue;
      if (!labels.empty() && labels[i] == kExcluded) continue;
      AlignedRow row = split_row(w_, i);
      nodes[i].set_topology(std::move(row.neighbors),
                            std::move(row.weights), row.self);
      nodes[i].restart();
    }
    rebuild_pruned_masks();
  };

  if (injector) {
    hooks.on_churn = [&](std::size_t round, const net::ChurnDelta& delta,
                         runtime::MessageSink<Payload>& sink) {
      for (const auto c : delta.crashed) alive[c] = false;
      for (const auto l : delta.left) alive[l] = false;
      for (const auto r : delta.restarted) alive[r] = true;
      for (const auto j : delta.joined) alive[j] = true;
      // Ablation: without re-projection there is no healing at all —
      // joiners stay outside the mixing matrix (identity row) and run
      // cold on whatever links they have.
      if (!config_.reproject_on_churn) return;
      const topology::Graph& g = injector->current_graph();
      for (const auto j : delta.joined) {
        // Warm start: one live neighbor donates its full model as part
        // of the coordinated join handshake. The adoption must land at
        // this epoch boundary — before the collective restart below —
        // because a teleport *after* neighbors restart enters their
        // EXTRA memory term as a phantom displacement that never
        // cancels (the loss then drifts for the rest of the run). One
        // donor suffices: §IV-C makes any single live iterate a valid
        // restart point. The STATE_SYNC frame sent here is the
        // handshake's charged wire image.
        if (config_.warm_start_joins) {
          for (const auto h : g.neighbors(j)) {
            if (!alive[h]) continue;
            const linalg::Vector& xh = nodes[h].params();
            nodes[j].adopt_params(xh);
            std::vector<net::ParamUpdate> dense;
            dense.reserve(total_params);
            for (std::uint32_t p = 0; p < total_params; ++p) {
              dense.push_back({p, xh[p]});
            }
            sink.send(h, j, SnapWire{std::move(dense), true},
                      net::state_sync_frame_bytes(total_params),
                      /*state_sync=*/true);
            break;
          }
        }
        // Prime both directions of every new link with the post-
        // adoption iterates, so every neighbor's view of the joiner
        // matches what the joiner actually restarts from.
        const linalg::Vector& xj = nodes[j].params();
        for (const auto h : g.neighbors(j)) {
          if (!alive[h]) continue;
          backlog.prime(j, h, xj);
          backlog.prime(h, j, nodes[h].params());
        }
      }
      // W repair rides the component labels: under the shared clock a
      // confirmed churn event changes the labeling at this same round,
      // so this is exactly the partition hook's re-projection run one
      // wave early (idempotent); under async skew the churn hook may
      // fire rounds after the round-indexed delta did, and this is what
      // folds the late-confirmed membership flip into W.
      reproject_components(round);
    };

    // Split-brain reaction + merge-on-heal. The injector labels the
    // connected components of the *effective* graph (alive members ∧
    // links not under a sustained outage) every round; whenever the
    // labeling changes — a crash was confirmed, a sustained cut split
    // the topology, a heal merged it back — this hook rebuilds W as a
    // block-diagonal matrix over the components and restarts EXTRA per
    // component (§IV-C's license: any iterate is a valid restart
    // point, so each side of a split keeps making independent progress
    // on its own data). On a heal, the boundary nodes first exchange
    // full-state STATE_SYNC frames across the healed edges — view
    // repair must land *before* the re-projection restarts the merged
    // component, or the stale views enter the fresh recursion's memory
    // term as a phantom displacement that never cancels.
    hooks.on_partition = [&](std::size_t round,
                             const net::PartitionDelta& delta,
                             runtime::MessageSink<Payload>& sink) {
      if (!config_.reproject_on_churn) return;
      for (const auto& [u, v] : delta.healed_edges) {
        if (!alive[u] || !alive[v]) continue;
        // Both endpoints spent the split on different sides: each one's
        // view of the other is frozen at the split round. Swap full
        // models directly (the charged STATE_SYNC frames are the wire
        // image of that exchange) and drop the split-era backlog — the
        // absolute-value updates it merged are superseded wholesale.
        const linalg::Vector& xu = nodes[u].params();
        const linalg::Vector& xv = nodes[v].params();
        std::vector<net::ParamUpdate> dense_u;
        std::vector<net::ParamUpdate> dense_v;
        dense_u.reserve(total_params);
        dense_v.reserve(total_params);
        for (std::uint32_t p = 0; p < total_params; ++p) {
          dense_u.push_back({p, xu[p]});
          dense_v.push_back({p, xv[p]});
        }
        nodes[v].apply_update(u, dense_u);
        nodes[u].apply_update(v, dense_v);
        backlog.clear(u, v);
        backlog.clear(v, u);
        sink.send(u, v, SnapWire{std::move(dense_u), true},
                  net::state_sync_frame_bytes(total_params),
                  /*state_sync=*/true);
        sink.send(v, u, SnapWire{std::move(dense_v), true},
                  net::state_sync_frame_bytes(total_params),
                  /*state_sync=*/true);
      }
      // Block-diagonal re-projection over the new labels: an edge
      // survives only when both endpoints are alive and share a
      // component. With a single component this is bitwise the plain
      // survivor re-projection, so unpartitioned churn trajectories
      // are unchanged.
      reproject_components(round);
    };
  }

  // 3. Delivery: each receiver folds arrived frames into its own views.
  // Paced async only queues them here — consumption is round-aligned in
  // local_update above, so a fast neighbor's next frame can never
  // overwrite a view the receiver has not mixed yet.
  hooks.mix = [&](topology::NodeId i,
                  std::span<const runtime::Delivery<Payload>> deliveries,
                  runtime::MessageSink<Payload>&) {
    for (const auto& message : deliveries) {
      if (message.payload.state_sync) {
        // STATE_SYNC handoff: already adopted at the epoch boundary as
        // part of the coordinated join handshake (on_churn above) — a
        // handoff is not a round frame, so it never enters the paced
        // queues, and re-applying it here (possibly rounds later on the
        // async fabric) would teleport the joiner backwards through its
        // own recursion. The frame's purpose on this path is its wire
        // cost, which the fabric has already charged.
        continue;
      }
      if (paced) {
        pending[i][message.from].push_back(message.payload.updates);
      } else {
        nodes[i].apply_update(message.from, message.payload.updates);
      }
    }
  };

  // 4. Bookkeeping: the mean model's aggregate objective, consensus
  // residual, and (gated) test accuracy.
  hooks.evaluate = [&](std::size_t, bool measure_accuracy) {
    const linalg::Vector mean = mean_params(nodes, alive, fabric->pool());
    runtime::RoundEval eval;
    eval.consensus_residual = residual_of(nodes, alive, mean, fabric->pool());
    eval.train_loss = mean_local_loss(nodes, alive, mean, fabric->pool());
    if (measure_accuracy) {
      eval.test_accuracy = model_->accuracy(mean, test);
      eval.evaluated = true;
    }
    return eval;
  };

  // Paced-async gate: a node may start round k+1 only once a frame (or
  // heartbeat) from every neighbor's round k is queued. Neighborhood-
  // local — no global barrier, and the wall-clock win over the PS comes
  // from losing the incast hub and the push-back leg, not from skipping
  // slow nodes. The first update needs no frames (all views start at
  // the shared x0).
  if (paced) {
    hooks.ready = [&](topology::NodeId i, std::size_t) {
      if (rounds[i] == 0) return true;
      const auto& neighbors = nodes[i].neighbors();
      return std::all_of(neighbors.begin(), neighbors.end(),
                         [&](topology::NodeId j) {
                           // Never park behind a dead or silent peer —
                           // that is exactly the forever-stall the
                           // recovery layer exists to break. kReweight
                           // absorbs the missing frame.
                           if (injector &&
                               (!alive[j] || fabric->suspected(i, j))) {
                             return true;
                           }
                           const auto it = pending[i].find(j);
                           return it != pending[i].end() &&
                                  !it->second.empty();
                         });
    };
  }

  // Checkpoint save/restore of the algorithm's complete mutable state.
  // Everything the round loop reads lives in the locals captured here:
  // node iterates/views/mixing rows (SnapNode::save), APE controllers,
  // the confirmed-membership mask, the per-link transmit backlog
  // (serialized with sorted outer keys so replicas write identical
  // bytes), per-node round counters, the one-shot recursion-restart
  // flag, and the previous gossip activation (the rows the next
  // on_activation rebuilds). w_ is deliberately absent: churn
  // re-projections recompute it from the injector's graph + the alive
  // mask, and the per-node rows it produced are already in the node
  // blobs. The fabric restores its own side (series, cost totals,
  // injector round, wire positions) around these hooks.
  hooks.save_state = [&](common::ByteWriter& writer) {
    for (const SnapNode& node : nodes) node.save(writer);
    for (const auto& controller : ape) {
      writer.write_u8(controller.has_value() ? 1 : 0);
      if (controller.has_value()) controller->save(writer);
    }
    for (topology::NodeId i = 0; i < n; ++i) {
      writer.write_u8(alive[i] ? 1 : 0);
    }
    backlog.save(writer);
    for (const std::size_t r : rounds) {
      writer.write_u64(static_cast<std::uint64_t>(r));
    }
    writer.write_u8(restarted ? 1 : 0);
    writer.write_u64(prev_links.size());
    for (const auto& [u, v] : prev_links) {
      writer.write_u64(u);
      writer.write_u64(v);
    }
    if (sparsify_on) {
      // The pruned set (sorted so replicas write identical bytes) plus
      // the telemetry the annotate_stats hook publishes. w_ itself is
      // absent for the same reason as above: the node blobs already
      // carry the sparsified rows.
      std::vector<std::uint64_t> keys(pruned_keys.begin(),
                                      pruned_keys.end());
      std::sort(keys.begin(), keys.end());
      writer.write_u64(keys.size());
      for (const std::uint64_t k : keys) writer.write_u64(k);
      writer.write_u64(links_pruned_stat);
      writer.write_u64(effective_edges_stat);
      writer.write_f64(slem_after_prune_stat);
    }
  };
  hooks.load_state = [&](common::ByteReader& reader) {
    for (SnapNode& node : nodes) {
      if (!node.load(reader)) return false;
    }
    for (topology::NodeId i = 0; i < n; ++i) {
      const bool armed = reader.read_u8() != 0;
      if (!reader.ok()) return false;
      if (!armed) {
        ape[i].reset();
        continue;
      }
      // The controller re-derives nothing at load: emplace with any
      // anchor, then load() overwrites every derived field.
      ape[i].emplace(config_.ape, 0.0);
      if (!ape[i]->load(reader)) return false;
    }
    for (topology::NodeId i = 0; i < n; ++i) {
      alive[i] = reader.read_u8() != 0;
    }
    if (!backlog.load(reader)) return false;
    for (std::size_t& r : rounds) {
      r = static_cast<std::size_t>(reader.read_u64());
    }
    restarted = reader.read_u8() != 0;
    const std::uint64_t link_count = reader.read_u64();
    if (!reader.ok() ||
        link_count > static_cast<std::uint64_t>(n) * n) {
      return false;
    }
    prev_links.clear();
    prev_links.reserve(link_count);
    for (std::uint64_t k = 0; k < link_count; ++k) {
      const auto u = static_cast<topology::NodeId>(reader.read_u64());
      const auto v = static_cast<topology::NodeId>(reader.read_u64());
      prev_links.push_back({u, v});
    }
    if (sparsify_on) {
      const std::uint64_t pruned_count = reader.read_u64();
      if (!reader.ok() ||
          pruned_count > static_cast<std::uint64_t>(n) * n) {
        return false;
      }
      pruned_keys.clear();
      for (std::uint64_t k = 0; k < pruned_count; ++k) {
        pruned_keys.insert(reader.read_u64());
      }
      links_pruned_stat = reader.read_u64();
      effective_edges_stat = reader.read_u64();
      slem_after_prune_stat = reader.read_f64();
      if (!reader.ok()) return false;
      if (injector) injector->set_pruned_links(pruned_keys);
      // The node blobs restored above already carry the sparsified
      // neighbor rows, so the masks project cleanly onto them.
      rebuild_pruned_masks();
    }
    return reader.ok();
  };

  // Sparsifier telemetry: stamped onto every recorded row just before
  // the fabric commits it, so the CSV/checkpoint carry the pruned-state
  // actually in force for that round (epoch re-runs update the locals
  // mid-run).
  if (sparsify_on) {
    hooks.annotate_stats = [&](IterationStats& stats) {
      stats.links_pruned = links_pruned_stat;
      stats.effective_edges = effective_edges_stat;
      stats.slem_after_prune = slem_after_prune_stat;
    };
  }

  hooks.end_round = [&](std::size_t round) {
    // Async has no global post-send instant; the eval barrier — every
    // node has finished the round — is the closest shared-clock point,
    // so the synchronized restart rides here (a fast node restarts a
    // round or two into its future; homogeneous timing collapses this
    // to the sync semantics).
    if (async_mode) maybe_restart();
    if (observer_) observer_(round, nodes);
  };

  TrainResult result = fabric->run(hooks);
  // Publish the shard's wire counters (frames, OS bytes, per-frame
  // charged-vs-encoded parity) before the artifacts are torn down.
  if (socket != nullptr) socket->write_stats();

  const linalg::Vector mean = mean_params(nodes, alive, fabric->pool());
  result.final_params = mean;
  result.final_train_loss =
      mean_local_loss(nodes, alive, mean, fabric->pool());
  result.final_test_accuracy = model_->accuracy(mean, test);
  return result;
}

}  // namespace snap::core
