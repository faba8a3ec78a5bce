#include "core/snap_node.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace snap::core {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// Splits a {self} ∪ neighbors weight map into the aligned-array form.
std::vector<double> aligned_weights(
    topology::NodeId self, const std::vector<topology::NodeId>& neighbors,
    const std::unordered_map<topology::NodeId, double>& weights_row,
    double& self_weight) {
  std::vector<double> out;
  out.reserve(neighbors.size());
  for (const auto j : neighbors) {
    const auto it = weights_row.find(j);
    SNAP_REQUIRE_MSG(it != weights_row.end(),
                     "missing weight for neighbor " << j);
    out.push_back(it->second);
  }
  const auto self_it = weights_row.find(self);
  SNAP_REQUIRE_MSG(self_it != weights_row.end(), "missing self weight");
  self_weight = self_it->second;
  return out;
}

}  // namespace

SnapNode::SnapNode(topology::NodeId id, const ml::Model& model,
                   data::Dataset shard,
                   std::vector<topology::NodeId> neighbors,
                   std::unordered_map<topology::NodeId, double> weights_row,
                   StragglerPolicy straggler_policy)
    : id_(id),
      model_(&model),
      shard_(std::move(shard)),
      neighbors_(std::move(neighbors)),
      straggler_policy_(straggler_policy) {
  std::sort(neighbors_.begin(), neighbors_.end());
  w_neighbors_ = aligned_weights(id_, neighbors_, weights_row, w_self_);
  validate_weight_row();
}

SnapNode::SnapNode(topology::NodeId id, const ml::Model& model,
                   data::Dataset shard,
                   std::vector<topology::NodeId> neighbors,
                   std::vector<double> neighbor_weights, double self_weight,
                   StragglerPolicy straggler_policy)
    : id_(id),
      model_(&model),
      shard_(std::move(shard)),
      neighbors_(std::move(neighbors)),
      w_neighbors_(std::move(neighbor_weights)),
      w_self_(self_weight),
      straggler_policy_(straggler_policy) {
  SNAP_REQUIRE_MSG(
      std::is_sorted(neighbors_.begin(), neighbors_.end()),
      "aligned constructor requires an index-sorted neighbor list");
  SNAP_REQUIRE(w_neighbors_.size() == neighbors_.size());
  validate_weight_row();
}

void SnapNode::set_weight_row(
    std::unordered_map<topology::NodeId, double> weights_row) {
  w_neighbors_ = aligned_weights(id_, neighbors_, weights_row, w_self_);
  validate_weight_row();
  w_row_dirty_ = true;
}

void SnapNode::set_weight_row(std::vector<double> neighbor_weights,
                              double self_weight) {
  SNAP_REQUIRE(neighbor_weights.size() == neighbors_.size());
  w_neighbors_ = std::move(neighbor_weights);
  w_self_ = self_weight;
  validate_weight_row();
  w_row_dirty_ = true;
}

void SnapNode::set_topology(
    std::vector<topology::NodeId> neighbors,
    std::unordered_map<topology::NodeId, double> weights_row) {
  std::sort(neighbors.begin(), neighbors.end());
  double self_weight = 0.0;
  std::vector<double> weights =
      aligned_weights(id_, neighbors, weights_row, self_weight);
  set_topology(std::move(neighbors), std::move(weights), self_weight);
}

void SnapNode::set_topology(std::vector<topology::NodeId> neighbors,
                            std::vector<double> neighbor_weights,
                            double self_weight) {
  SNAP_REQUIRE_MSG(std::is_sorted(neighbors.begin(), neighbors.end()),
                   "aligned set_topology requires a sorted neighbor list");
  SNAP_REQUIRE(neighbor_weights.size() == neighbors.size());
  std::vector<topology::NodeId> old_neighbors = std::move(neighbors_);
  neighbors_ = std::move(neighbors);
  w_neighbors_ = std::move(neighbor_weights);
  w_self_ = self_weight;
  validate_weight_row();
  w_row_dirty_ = true;
  if (dim_ == 0) return;  // before set_initial: nothing to prime
  if (old_neighbors != neighbors_) reindex_views(old_neighbors);
}

void SnapNode::reindex_views(
    const std::vector<topology::NodeId>& old_neighbors) {
  const std::vector<double> old_current = std::move(view_current_slab_);
  const std::vector<double> old_previous = std::move(view_previous_slab_);
  const std::vector<std::uint8_t> old_fresh = std::move(fresh_);
  const std::vector<std::uint8_t> old_fresh_previous =
      std::move(fresh_previous_);

  const std::size_t deg = neighbors_.size();
  view_current_slab_.assign(deg * dim_, 0.0);
  view_previous_slab_.assign(deg * dim_, 0.0);
  fresh_.assign(deg, 0);
  fresh_previous_.assign(deg, 0);

  for (std::size_t s = 0; s < deg; ++s) {
    const topology::NodeId j = neighbors_[s];
    const auto old_it =
        std::lower_bound(old_neighbors.begin(), old_neighbors.end(), j);
    if (old_it != old_neighbors.end() && *old_it == j) {
      const std::size_t os =
          static_cast<std::size_t>(old_it - old_neighbors.begin());
      std::copy_n(old_current.data() + os * dim_, dim_,
                  view_current_slab_.data() + s * dim_);
      std::copy_n(old_previous.data() + os * dim_, dim_,
                  view_previous_slab_.data() + s * dim_);
      fresh_[s] = old_fresh[os];
      fresh_previous_[s] = old_fresh_previous[os];
      continue;
    }
    if (const auto parked = parked_views_.find(j);
        parked != parked_views_.end()) {
      // Re-attach: resume the view exactly where the detach left off.
      std::copy_n(parked->second.current.data(), dim_,
                  view_current_slab_.data() + s * dim_);
      std::copy_n(parked->second.previous.data(), dim_,
                  view_previous_slab_.data() + s * dim_);
      fresh_[s] = parked->second.fresh ? 1 : 0;
      fresh_previous_[s] = parked->second.fresh_previous ? 1 : 0;
      parked_views_.erase(parked);
      continue;
    }
    // A brand-new neighbor: no frame has ever arrived, so the view is a
    // placeholder (own iterate) and stale — kReweight folds its weight
    // until the neighbor's first real frame lands.
    std::copy_n(x_current_.data(), dim_, view_current_slab_.data() + s * dim_);
    std::copy_n(x_current_.data(), dim_,
                view_previous_slab_.data() + s * dim_);
  }

  // Park detached neighbors' views for a possible re-attach.
  for (std::size_t os = 0; os < old_neighbors.size(); ++os) {
    const topology::NodeId j = old_neighbors[os];
    const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), j);
    if (it != neighbors_.end() && *it == j) continue;
    ParkedView parked;
    parked.current.assign(old_current.data() + os * dim_,
                          old_current.data() + (os + 1) * dim_);
    parked.previous.assign(old_previous.data() + os * dim_,
                           old_previous.data() + (os + 1) * dim_);
    parked.fresh = old_fresh[os] != 0;
    parked.fresh_previous = old_fresh_previous[os] != 0;
    parked_views_.insert_or_assign(j, std::move(parked));
  }
}

void SnapNode::adopt_params(const linalg::Vector& x) {
  SNAP_REQUIRE_MSG(!x_current_.empty(), "set_initial not called");
  SNAP_REQUIRE_MSG(x.size() == x_current_.size(),
                   "state sync dimension mismatch");
  x_current_ = x;
  x_previous_ = x;
  grad_previous_ = linalg::Vector();
  iteration_ = 0;
}

void SnapNode::validate_weight_row() const {
  double row_sum = 0.0;
  for (const double w : w_neighbors_) row_sum += w;
  SNAP_REQUIRE_MSG(std::abs(row_sum + w_self_ - 1.0) < 1e-6,
                   "weight row of node " << id_ << " sums to "
                                         << row_sum + w_self_);
}

std::size_t SnapNode::slot_of(topology::NodeId j) const noexcept {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), j);
  if (it == neighbors_.end() || *it != j) return kNoSlot;
  return static_cast<std::size_t>(it - neighbors_.begin());
}

void SnapNode::set_initial(const linalg::Vector& x0) {
  SNAP_REQUIRE(x0.size() == model_->param_count());
  x_current_ = x0;
  x_previous_ = x0;
  advertised_ = x0;
  grad_previous_ = linalg::Vector();
  dim_ = x0.size();
  const std::size_t deg = neighbors_.size();
  view_current_slab_.resize(deg * dim_);
  view_previous_slab_.resize(deg * dim_);
  for (std::size_t s = 0; s < deg; ++s) {
    std::copy_n(x0.data(), dim_, view_current_slab_.data() + s * dim_);
    std::copy_n(x0.data(), dim_, view_previous_slab_.data() + s * dim_);
  }
  fresh_.assign(deg, 1);  // identical x⁰ everywhere: views are exact
  fresh_previous_.assign(deg, 1);
  parked_views_.clear();
  iteration_ = 0;
  mean_abs_initial_ = x0.empty() ? 0.0 : x0.norm1() / double(x0.size());
}

void SnapNode::compute_update(double alpha) {
  SNAP_REQUIRE_MSG(!x_current_.empty(), "set_initial not called");
  const std::size_t dim = x_current_.size();
  const std::size_t deg = neighbors_.size();

  // kReweight: an absent neighbor's weight folds into the node's own
  // value, so the round's effective mixing matrix remains stochastic.
  // Each of the recursion's two terms consults the freshness of *its
  // own* round: after a dropped round, the W̃ term's view is two rounds
  // stale even though the W term's just recovered — substituting per
  // term keeps the perturbation one-round transient (anchoring the W̃
  // term to a 2-stale view feeds a slow exponential divergence through
  // EXTRA's accumulator).
  const auto current_of = [&](std::size_t s) -> std::span<const double> {
    if (straggler_policy_ == StragglerPolicy::kReweight && !fresh_[s]) {
      return x_current_.span();
    }
    return view_current(s);
  };
  const auto previous_of = [&](std::size_t s) -> std::span<const double> {
    if (straggler_policy_ == StragglerPolicy::kReweight &&
        !fresh_previous_[s]) {
      return x_previous_.span();
    }
    return view_previous(s);
  };

  if (iteration_ == 0) {
    // x¹ = Σ_j w_ij x̂_j⁰ − α ∇f_i(x⁰).
    grad_previous_ = model_->gradient(x_current_, shard_);
    linalg::Vector next(dim);
    next.axpy(w_self_, x_current_);
    for (std::size_t s = 0; s < deg; ++s) {
      next.axpy(w_neighbors_[s], current_of(s));
    }
    next.axpy(-alpha, grad_previous_);
    x_previous_ = std::move(x_current_);
    x_current_ = std::move(next);
  } else {
    // xᵏ⁺² = xᵏ⁺¹ + Σ_j w_ij x̂_jᵏ⁺¹ − Σ_j w̃'_ij x̂_jᵏ
    //        − α (∇f_i(xᵏ⁺¹) − ∇f_i(xᵏ)),  with w̃'_ij = (w'_ij+1{i=j})/2
    // and w' the row used by the PREVIOUS compute_update. For a static W
    // (every run but gossip) w' == w and this is the textbook recursion.
    // Under per-round row swaps the distinction is what keeps the
    // telescoped sum exact: the memory term must subtract the same
    // (row, view) product the previous round added, else the
    // ½(Wₜ − Wₜ₋₁)x̂ᵏ mismatch feeds a disagreement-proportional error
    // through the accumulator every round and the recursion diverges.
    linalg::Vector grad_now = model_->gradient(x_current_, shard_);
    linalg::Vector next = x_current_;
    next.axpy(w_self_, x_current_);
    next.axpy(-(w_self_prev_ + 1.0) / 2.0, x_previous_);
    // Both neighbor lists are sorted, so the previous round's weight for
    // each current neighbor comes from a single merge walk.
    std::size_t p = 0;
    const std::size_t deg_prev = neighbors_prev_.size();
    for (std::size_t s = 0; s < deg; ++s) {
      const topology::NodeId j = neighbors_[s];
      next.axpy(w_neighbors_[s], current_of(s));
      while (p < deg_prev && neighbors_prev_[p] < j) ++p;
      // A neighbor attached since the last update has no previous
      // weight: it contributed nothing last round, so nothing is owed.
      if (p < deg_prev && neighbors_prev_[p] == j) {
        next.axpy(-w_neighbors_prev_[p] / 2.0, previous_of(s));
      }
    }
    next.axpy(-alpha, grad_now);
    next.axpy(alpha, grad_previous_);
    grad_previous_ = std::move(grad_now);
    x_previous_ = std::move(x_current_);
    x_current_ = std::move(next);
  }
  if (w_row_dirty_) {
    // Capture the row the W̃ memory term must pair with next round.
    // Skipped on static-row rounds: the previous capture still matches.
    neighbors_prev_ = neighbors_;
    w_neighbors_prev_ = w_neighbors_;
    w_self_prev_ = w_self_;
    w_row_dirty_ = false;
  }
  ++iteration_;
}

SnapNode::Outgoing SnapNode::collect_updates(FilterMode mode,
                                             double threshold) {
  SNAP_REQUIRE(threshold >= 0.0);
  Outgoing out;
  const std::size_t dim = x_current_.size();
  out.updates.reserve(dim / 4);
  for (std::size_t p = 0; p < dim; ++p) {
    const double change = std::abs(x_current_[p] - advertised_[p]);
    bool send = false;
    switch (mode) {
      case FilterMode::kSendAll:
        send = true;
        break;
      case FilterMode::kExactChange:
        send = change > 0.0;
        break;
      case FilterMode::kApe:
        send = change >= threshold && change > 0.0;
        break;
    }
    if (send) {
      out.updates.push_back(
          {static_cast<std::uint32_t>(p), x_current_[p]});
      advertised_[p] = x_current_[p];
    } else {
      out.max_withheld = std::max(out.max_withheld, change);
    }
  }
  return out;
}

void SnapNode::advance_views() {
  view_previous_slab_ = view_current_slab_;
  fresh_previous_ = fresh_;
  std::fill(fresh_.begin(), fresh_.end(), std::uint8_t{0});
}

void SnapNode::apply_update(topology::NodeId from,
                            std::span<const net::ParamUpdate> updates) {
  const std::size_t s = slot_of(from);
  if (s == kNoSlot) {
    // In-flight frame from a detached former neighbor: fold it into the
    // parked view so a re-attach sees it, exactly as the live view would.
    const auto parked = parked_views_.find(from);
    SNAP_REQUIRE_MSG(parked != parked_views_.end(),
                     "update from non-neighbor " << from);
    for (const net::ParamUpdate& u : updates) {
      SNAP_REQUIRE(u.index < parked->second.current.size());
      parked->second.current[u.index] = u.value;
    }
    parked->second.fresh = true;
    return;
  }
  const std::span<double> view = view_current(s);
  for (const net::ParamUpdate& u : updates) {
    SNAP_REQUIRE(u.index < view.size());
    view[u.index] = u.value;
  }
  fresh_[s] = 1;
}

bool SnapNode::is_fresh(topology::NodeId j) const {
  const std::size_t s = slot_of(j);
  if (s != kNoSlot) return fresh_[s] != 0;
  const auto parked = parked_views_.find(j);
  SNAP_REQUIRE_MSG(parked != parked_views_.end(), "no neighbor " << j);
  return parked->second.fresh;
}

std::span<const double> SnapNode::view_of(topology::NodeId j) const {
  const std::size_t s = slot_of(j);
  if (s != kNoSlot) return view_current(s);
  const auto parked = parked_views_.find(j);
  SNAP_REQUIRE_MSG(parked != parked_views_.end(), "no view of node " << j);
  return {parked->second.current.data(), parked->second.current.size()};
}

namespace {

void write_node_ids(common::ByteWriter& writer,
                    const std::vector<topology::NodeId>& ids) {
  writer.write_u64(ids.size());
  for (const auto id : ids) writer.write_u64(id);
}

bool read_node_ids(common::ByteReader& reader,
                   std::vector<topology::NodeId>& ids) {
  const std::uint64_t count = reader.read_u64();
  if (!reader.ok() || count * 8 > reader.remaining()) return false;
  ids.clear();
  ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<topology::NodeId>(reader.read_u64()));
  }
  return reader.ok();
}

void write_doubles(common::ByteWriter& writer,
                   std::span<const double> values) {
  writer.write_u64(values.size());
  for (const double v : values) writer.write_f64(v);
}

bool read_doubles(common::ByteReader& reader, std::vector<double>& values) {
  const std::uint64_t count = reader.read_u64();
  if (!reader.ok() || count * 8 > reader.remaining()) return false;
  values.clear();
  values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    values.push_back(reader.read_f64());
  }
  return reader.ok();
}

void write_vector(common::ByteWriter& writer, const linalg::Vector& v) {
  writer.write_u64(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) writer.write_f64(v[i]);
}

bool read_vector(common::ByteReader& reader, linalg::Vector& v) {
  const std::uint64_t count = reader.read_u64();
  if (!reader.ok() || count * 8 > reader.remaining()) return false;
  v = linalg::Vector(count);
  for (std::uint64_t i = 0; i < count; ++i) v[i] = reader.read_f64();
  return reader.ok();
}

void write_flags(common::ByteWriter& writer,
                 const std::vector<std::uint8_t>& flags) {
  writer.write_u64(flags.size());
  for (const std::uint8_t f : flags) writer.write_u8(f);
}

bool read_flags(common::ByteReader& reader,
                std::vector<std::uint8_t>& flags) {
  const std::uint64_t count = reader.read_u64();
  if (!reader.ok() || count > reader.remaining()) return false;
  flags.clear();
  flags.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) flags.push_back(reader.read_u8());
  return reader.ok();
}

}  // namespace

void SnapNode::save(common::ByteWriter& writer) const {
  write_node_ids(writer, neighbors_);
  write_doubles(writer, w_neighbors_);
  writer.write_f64(w_self_);
  write_node_ids(writer, neighbors_prev_);
  write_doubles(writer, w_neighbors_prev_);
  writer.write_f64(w_self_prev_);
  writer.write_u8(w_row_dirty_ ? 1 : 0);
  write_vector(writer, x_previous_);
  write_vector(writer, x_current_);
  write_vector(writer, grad_previous_);
  write_vector(writer, advertised_);
  writer.write_u64(dim_);
  write_doubles(writer, view_current_slab_);
  write_doubles(writer, view_previous_slab_);
  write_flags(writer, fresh_);
  write_flags(writer, fresh_previous_);
  // Parked views in key order so the blob is independent of hash-map
  // iteration order (bitwise-identical checkpoints across replicas).
  std::vector<topology::NodeId> parked_keys;
  parked_keys.reserve(parked_views_.size());
  for (const auto& [key, view] : parked_views_) parked_keys.push_back(key);
  std::sort(parked_keys.begin(), parked_keys.end());
  writer.write_u64(parked_keys.size());
  for (const auto key : parked_keys) {
    const ParkedView& view = parked_views_.at(key);
    writer.write_u64(key);
    write_doubles(writer, view.current);
    write_doubles(writer, view.previous);
    writer.write_u8(view.fresh ? 1 : 0);
    writer.write_u8(view.fresh_previous ? 1 : 0);
  }
  writer.write_u64(iteration_);
  writer.write_f64(mean_abs_initial_);
}

bool SnapNode::load(common::ByteReader& reader) {
  if (!read_node_ids(reader, neighbors_)) return false;
  if (!read_doubles(reader, w_neighbors_)) return false;
  w_self_ = reader.read_f64();
  if (!read_node_ids(reader, neighbors_prev_)) return false;
  if (!read_doubles(reader, w_neighbors_prev_)) return false;
  w_self_prev_ = reader.read_f64();
  w_row_dirty_ = reader.read_u8() != 0;
  if (!read_vector(reader, x_previous_)) return false;
  if (!read_vector(reader, x_current_)) return false;
  if (!read_vector(reader, grad_previous_)) return false;
  if (!read_vector(reader, advertised_)) return false;
  dim_ = static_cast<std::size_t>(reader.read_u64());
  if (!read_doubles(reader, view_current_slab_)) return false;
  if (!read_doubles(reader, view_previous_slab_)) return false;
  if (!read_flags(reader, fresh_)) return false;
  if (!read_flags(reader, fresh_previous_)) return false;
  const std::uint64_t parked_count = reader.read_u64();
  if (!reader.ok()) return false;
  parked_views_.clear();
  for (std::uint64_t i = 0; i < parked_count; ++i) {
    const auto key = static_cast<topology::NodeId>(reader.read_u64());
    ParkedView view;
    if (!read_doubles(reader, view.current)) return false;
    if (!read_doubles(reader, view.previous)) return false;
    view.fresh = reader.read_u8() != 0;
    view.fresh_previous = reader.read_u8() != 0;
    parked_views_.emplace(key, std::move(view));
  }
  iteration_ = static_cast<std::size_t>(reader.read_u64());
  mean_abs_initial_ = reader.read_f64();
  if (!reader.ok()) return false;
  // Shape consistency: everything slot-indexed must agree with the
  // neighbor list, and the view slabs with dim_.
  const std::size_t deg = neighbors_.size();
  return w_neighbors_.size() == deg && fresh_.size() == deg &&
         fresh_previous_.size() == deg &&
         view_current_slab_.size() == deg * dim_ &&
         view_previous_slab_.size() == deg * dim_ &&
         w_neighbors_prev_.size() == neighbors_prev_.size() &&
         x_current_.size() == dim_;
}

linalg::Vector mean_params(const std::vector<SnapNode>& nodes,
                           const std::vector<bool>& alive,
                           common::ThreadPool& pool) {
  const bool use_all =
      std::none_of(alive.begin(), alive.end(), [](bool a) { return a; });
  std::size_t count = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    count += (use_all || alive[i]) ? 1 : 0;
  }
  const std::size_t dim = nodes.front().params().size();
  const double inverse_count = 1.0 / static_cast<double>(count);
  linalg::Vector mean(dim);
  // Chunked over the parameter dimension and accumulated node-major
  // inside each chunk, so each node's parameters are read contiguously
  // once. Each entry still folds node contributions in node order.
  const std::size_t chunks = std::min(dim, pool.thread_count());
  pool.parallel_for(0, chunks, [&](std::size_t c) {
    const std::size_t begin = c * dim / chunks;
    const std::size_t width = (c + 1) * dim / chunks - begin;
    double* acc = mean.data() + begin;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!use_all && !alive[i]) continue;
      const double* x = nodes[i].params().data() + begin;
      for (std::size_t d = 0; d < width; ++d) acc[d] += x[d];
    }
    for (std::size_t d = 0; d < width; ++d) acc[d] *= inverse_count;
  });
  return mean;
}

}  // namespace snap::core
