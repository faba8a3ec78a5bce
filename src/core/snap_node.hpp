// Per-edge-server state and update rule (paper eq. (8)).
//
// A SnapNode owns one copy of the model parameters, its local data
// shard, and its *views* of each neighbor's parameters — the values it
// most recently received, which may be stale (filtered updates,
// stragglers). Each iteration it:
//   1. computes the EXTRA update from its own exact history and the
//      neighbor views (compute_update),
//   2. decides which parameters to transmit by comparing its new
//      parameters against the values it last advertised
//      (collect_updates), and
//   3. folds incoming frames into its views (advance_views /
//      apply_update).
// The "advertised" bookkeeping makes the withheld error per parameter
// at most the current threshold regardless of how many iterations it
// has been withheld — a slightly stronger guarantee than per-iteration
// deltas, with identical traffic behaviour (see DESIGN.md).
//
// Storage is structure-of-arrays: the mixing row lives in an aligned
// weight array over the index-sorted neighbor list (one CSR row view),
// and neighbor views/freshness live in contiguous per-slot slabs —
// compute_update walks flat arrays instead of chasing hash buckets, so
// ThreadPool sweeps over nodes stay cache-friendly at 10⁴–10⁵ nodes.
// The map-based constructors remain as convenience adapters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"
#include "ml/model.hpp"
#include "net/frame.hpp"
#include "topology/graph.hpp"

namespace snap::core {

/// How a node treats a neighbor whose round update never arrived
/// (paper §IV-D stragglers).
enum class StragglerPolicy {
  /// Fold the absent neighbor's mixing weight into the node's own value
  /// for this round — the neighbor is dropped from the average, and the
  /// round's effective mixing matrix stays (symmetric) doubly
  /// stochastic. This matches the paper's dropout intuition and keeps
  /// EXTRA's error floor proportional to the *dropout rate*, not to the
  /// staleness of old values. Default.
  kReweight,
  /// Use the last received values in place of the missing update — the
  /// paper's literal text ("leverage the latest parameter updates").
  /// Stale anchors perturb EXTRA's telescoped invariant, so heavy
  /// failure rates cost noticeably more accuracy under this policy (see
  /// the straggler ablation bench).
  kStaleValues,
};

/// Which parameters a node transmits each iteration.
enum class FilterMode {
  kApe,          ///< SNAP: APE-controlled threshold (Algorithm 1)
  kExactChange,  ///< SNAP-0: drop only parameters with zero change
  kSendAll,      ///< SNO: every parameter, every iteration
};

class SnapNode {
 public:
  /// `weights_row` is row i of the mixing matrix W restricted to
  /// {self} ∪ neighbors (all other entries of W are zero). The W̃ row is
  /// derived internally as (w + 1{j==i})/2.
  SnapNode(topology::NodeId id, const ml::Model& model,
           data::Dataset shard, std::vector<topology::NodeId> neighbors,
           std::unordered_map<topology::NodeId, double> weights_row,
           StragglerPolicy straggler_policy = StragglerPolicy::kReweight);

  /// Aligned fast path: `neighbor_weights[s]` is the weight of
  /// `neighbors[s]`, which must already be index-sorted (a CSR row view
  /// with the diagonal split out). Avoids building a map per node when
  /// the caller already holds the sparse row.
  SnapNode(topology::NodeId id, const ml::Model& model,
           data::Dataset shard, std::vector<topology::NodeId> neighbors,
           std::vector<double> neighbor_weights, double self_weight,
           StragglerPolicy straggler_policy = StragglerPolicy::kReweight);

  /// Installs x⁰ and primes views/advertised values. All nodes must be
  /// seeded with the same x⁰ (they are in SNAP: a shared initial model),
  /// so initial views are exact without a broadcast round.
  void set_initial(const linalg::Vector& x0);

  /// Replaces this node's mixing-matrix row mid-run (weight re-projection
  /// on confirmed churn). The row must still cover {self} ∪ neighbors and
  /// sum to 1 — a re-projected matrix zeroes dead neighbors' weights
  /// rather than removing the entries. Views, iterate history, and
  /// advertised values are untouched; pair with restart() so the next
  /// update is a fresh first EXTRA step under the new W.
  void set_weight_row(std::unordered_map<topology::NodeId, double> weights_row);

  /// Aligned form: `neighbor_weights[s]` pairs with the s-th entry of
  /// the current (sorted) neighbor list.
  void set_weight_row(std::vector<double> neighbor_weights,
                      double self_weight);

  /// Replaces the neighbor set *and* the mixing row together — the
  /// membership-epoch form of set_weight_row, used when a join attaches
  /// new edges. Existing neighbor views (and their freshness) survive —
  /// including across a detach/re-attach cycle; a brand-new neighbor's
  /// view is primed to this node's own iterate and marked stale, so
  /// under kReweight it contributes nothing until its first real frame
  /// lands. Pair with restart().
  void set_topology(std::vector<topology::NodeId> neighbors,
                    std::unordered_map<topology::NodeId, double> weights_row);

  /// Aligned form of set_topology: `neighbors` must be sorted and
  /// `neighbor_weights` aligned with it.
  void set_topology(std::vector<topology::NodeId> neighbors,
                    std::vector<double> neighbor_weights,
                    double self_weight);

  /// Warm start from a neighbor's STATE_SYNC handoff: installs `x` as
  /// both the current and previous iterate and restarts the EXTRA
  /// recursion from it (§IV-C licenses restarting from arbitrary
  /// iterates). The advertised baseline is deliberately left at its old
  /// values: the adopted parameters differ from it nearly everywhere,
  /// so the next collect_updates re-advertises (almost) the full
  /// vector and corrects every neighbor's view of this node.
  void adopt_params(const linalg::Vector& x);

  /// Advances the local iterate one EXTRA step (eq. (8)) using the
  /// current neighbor views. `alpha` is the step size.
  void compute_update(double alpha);

  /// Restarts the EXTRA recursion from the current iterate: the next
  /// compute_update performs a fresh first step (x¹ = Wx⁰ − α∇f) with
  /// the current parameters as x⁰. Views and advertised values are
  /// kept. Exposed for ablations; the production trainer does NOT
  /// restart at APE stage boundaries — the first EXTRA step moves by
  /// the full local gradient α∇f_i (nonzero even at the consensual
  /// optimum), so a restart near convergence re-injects error.
  void restart() noexcept { iteration_ = 0; }

  struct Outgoing {
    /// Parameters to transmit (sorted by index).
    std::vector<net::ParamUpdate> updates;
    /// Largest |change| among *withheld* parameters (APE bookkeeping).
    double max_withheld = 0.0;
  };

  /// Selects parameters whose |x − advertised| meets the mode/threshold,
  /// marks them advertised, and returns them. `threshold` only applies
  /// to kApe mode.
  Outgoing collect_updates(FilterMode mode, double threshold);

  /// Shifts every neighbor view one iteration back (x̂ᵏ becomes the
  /// "previous" view) and marks every neighbor stale until a frame
  /// (possibly an empty heartbeat) arrives. Call once per round before
  /// apply_update.
  void advance_views();

  /// Applies a received frame from neighbor `from` onto the current view
  /// and marks that neighbor fresh for the next update. An empty frame
  /// is a heartbeat: no values change, but the neighbor counts as heard
  /// from. A frame from a *detached* former neighbor (in flight when an
  /// epoch changed) updates the parked view it would reattach with.
  void apply_update(topology::NodeId from,
                    std::span<const net::ParamUpdate> updates);

  /// True when `j`'s latest round update arrived (used by kReweight).
  bool is_fresh(topology::NodeId j) const;

  topology::NodeId id() const noexcept { return id_; }
  const std::vector<topology::NodeId>& neighbors() const noexcept {
    return neighbors_;
  }
  const linalg::Vector& params() const noexcept { return x_current_; }
  const data::Dataset& shard() const noexcept { return shard_; }
  std::size_t iteration() const noexcept { return iteration_; }

  /// Local objective f_i evaluated at arbitrary parameters.
  double local_loss(const linalg::Vector& at) const {
    return model_->loss(at, shard_);
  }

  /// Node-local mean |x⁰_p| (used to size the initial APE budget).
  double mean_abs_initial() const noexcept { return mean_abs_initial_; }

  /// The view this node currently holds of neighbor `j` (for tests).
  std::span<const double> view_of(topology::NodeId j) const;

  /// Checkpoint save/restore of the complete mutable node state: mixing
  /// rows (current + the prev-row the memory term pairs with), iterate
  /// history, advertised baseline, view slabs + freshness, parked views
  /// (serialized in key order for determinism), and the EXTRA iteration
  /// counter. The id/model/shard/straggler policy are reconstruction-
  /// time — the trainer rebuilds the node, then load() overwrites the
  /// rest. load returns false on a truncated or shape-inconsistent
  /// blob, never half-applies.
  void save(common::ByteWriter& writer) const;
  bool load(common::ByteReader& reader);

 private:
  /// A detached neighbor's view state, parked across membership epochs
  /// so a re-attach resumes exactly where the detach left off.
  struct ParkedView {
    std::vector<double> current;
    std::vector<double> previous;
    bool fresh = false;
    bool fresh_previous = false;
  };

  void validate_weight_row() const;
  /// Slot of neighbor j in the sorted neighbor list, or npos.
  std::size_t slot_of(topology::NodeId j) const noexcept;
  /// Rebuilds the view slabs for a changed neighbor list, carrying
  /// surviving views over, restoring parked ones, priming new ones.
  void reindex_views(const std::vector<topology::NodeId>& old_neighbors);

  std::span<const double> view_current(std::size_t slot) const noexcept {
    return {view_current_slab_.data() + slot * dim_, dim_};
  }
  std::span<double> view_current(std::size_t slot) noexcept {
    return {view_current_slab_.data() + slot * dim_, dim_};
  }
  std::span<const double> view_previous(std::size_t slot) const noexcept {
    return {view_previous_slab_.data() + slot * dim_, dim_};
  }

  topology::NodeId id_;
  const ml::Model* model_;
  data::Dataset shard_;
  /// Index-sorted neighbor ids; w_neighbors_[s] is the mixing weight of
  /// neighbors_[s] (a CSR row with the diagonal held in w_self_).
  std::vector<topology::NodeId> neighbors_;
  std::vector<double> w_neighbors_;
  double w_self_ = 0.0;
  /// The row the previous compute_update mixed with — the W̃ memory term
  /// must pair with it, not with a row swapped in since (time-varying
  /// gossip activations; identical to the current row under a static W).
  /// Only re-captured when the row actually changed (see w_row_dirty_).
  std::vector<topology::NodeId> neighbors_prev_;
  std::vector<double> w_neighbors_prev_;
  double w_self_prev_ = 0.0;
  /// True when the mixing row (or neighbor set) changed since the last
  /// compute_update — lets the per-round prev-row capture degenerate to
  /// a flag clear on the (overwhelmingly common) static-row rounds.
  bool w_row_dirty_ = true;

  linalg::Vector x_previous_;
  linalg::Vector x_current_;
  linalg::Vector grad_previous_;
  linalg::Vector advertised_;
  StragglerPolicy straggler_policy_;
  /// Neighbor views as slot-major contiguous slabs of dim_ doubles.
  std::size_t dim_ = 0;
  std::vector<double> view_current_slab_;
  std::vector<double> view_previous_slab_;
  std::vector<std::uint8_t> fresh_;
  std::vector<std::uint8_t> fresh_previous_;
  /// Views of detached former neighbors, keyed for re-attach.
  std::unordered_map<topology::NodeId, ParkedView> parked_views_;
  std::size_t iteration_ = 0;
  double mean_abs_initial_ = 0.0;
};

/// Mean of the nodes' parameter vectors over the alive mask — a crashed
/// node's frozen iterate would drag the mean toward wherever it died; an
/// all-dead mask degenerates to all nodes so a last report stays finite.
/// Each entry folds node contributions in node order, so the result is
/// bitwise identical to the serial loop for any pool size.
linalg::Vector mean_params(const std::vector<SnapNode>& nodes,
                           const std::vector<bool>& alive,
                           common::ThreadPool& pool);

}  // namespace snap::core
