#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  os.precision(17);
  (os << ... << parts);
  return os.str();
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-10 + 1e-9 * std::abs(b);
}

}  // namespace

std::uint64_t full_frame_bytes(std::size_t params) noexcept {
  return 1 + 4 + 4 + 8 * static_cast<std::uint64_t>(params);
}

double PlainMatrix::at(std::size_t i, std::size_t j) const {
  for (const auto& [col, value] : rows[i]) {
    if (col == j) return value;
  }
  return 0.0;
}

PlainMatrix plain(const snap::consensus::SparseWeightMatrix& w) {
  PlainMatrix out;
  out.n = w.node_count();
  out.rows.resize(out.n);
  for (std::size_t i = 0; i < out.n; ++i) {
    const auto row = w.row(static_cast<snap::topology::NodeId>(i));
    for (std::size_t k = 0; k < row.cols.size(); ++k) {
      out.rows[i].emplace_back(row.cols[k], row.values[k]);
    }
  }
  return out;
}

PlainMatrix plain(const snap::linalg::Matrix& w) {
  PlainMatrix out;
  out.n = w.rows();
  out.rows.resize(out.n);
  for (std::size_t i = 0; i < out.n; ++i) {
    for (std::size_t j = 0; j < out.n; ++j) {
      if (w(i, j) != 0.0) {
        out.rows[i].emplace_back(static_cast<std::uint32_t>(j), w(i, j));
      }
    }
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list(
    const snap::topology::Graph& graph) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [u, v] : graph.edges()) {
    out.emplace_back(static_cast<std::uint32_t>(u),
                     static_cast<std::uint32_t>(v));
  }
  return out;
}

void check_wire(const snap::core::TrainResult& result,
                const WireExpectation& expect, Errors& errors) {
  const std::uint64_t frame = full_frame_bytes(expect.params);
  std::uint64_t bytes_sum = 0;
  std::uint64_t cost_sum = 0;
  for (std::size_t r = 0; r < result.iterations.size(); ++r) {
    const auto& it = result.iterations[r];
    bytes_sum += it.bytes;
    cost_sum += it.cost;
    const std::uint64_t full =
        expect.gossip
            ? 2 * it.links_activated * frame + it.state_sync_bytes
            : expect.directed_links * frame;
    if (it.bytes > full) {
      errors.push_back(cat("round ", r + 1, ": ", it.bytes,
                           " B exceeds the full-send bound ", full, " B"));
    }
    if (!expect.gossip && r < expect.full_rounds && it.bytes != full) {
      errors.push_back(cat("round ", r + 1, " (before APE arms): ", it.bytes,
                           " B, expected exactly ", full, " B"));
    }
    if (it.cost != it.bytes) {
      errors.push_back(cat("round ", r + 1, ": hop-weighted cost ", it.cost,
                           " differs from wire bytes ", it.bytes));
    }
  }
  if (bytes_sum != result.total_bytes) {
    errors.push_back(cat("total_bytes ", result.total_bytes,
                         " differs from the per-round sum ", bytes_sum));
  }
  if (cost_sum != result.total_cost || result.total_cost != result.total_bytes) {
    errors.push_back(cat("total_cost ", result.total_cost,
                         " differs from total_bytes ", result.total_bytes,
                         " or the per-round sum ", cost_sum));
  }
}

double check_mixing_matrix(
    const PlainMatrix& w,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges,
    const std::vector<bool>& members, const std::string& what,
    Errors& errors) {
  const std::size_t n = w.n;
  const auto member = [&](std::size_t i) {
    return members.empty() || members[i];
  };
  std::set<std::pair<std::uint32_t, std::uint32_t>> edge_set(edges.begin(),
                                                             edges.end());
  std::size_t bad = 0;
  const auto fail = [&](const std::string& message) {
    if (bad++ < 5) errors.push_back(what + ": " + message);
  };
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const auto& [j, value] : w.rows[i]) {
      sum += value;
      // Rounding may leave a weight a few ulps below zero.
      if (value < -1e-12) fail(cat("W[", i, ",", j, "] = ", value, " < 0"));
      if (j == i || value == 0.0) continue;
      const auto u = static_cast<std::uint32_t>(i);
      if (!edge_set.contains({std::min(u, j), std::max(u, j)})) {
        fail(cat("W[", i, ",", j, "] = ", value, " off the graph"));
      }
      if (!member(i) || !member(j)) {
        fail(cat("W[", i, ",", j, "] = ", value, " touches a non-member"));
      }
      const double mirror = w.at(j, i);
      if (std::abs(mirror - value) > 1e-12) {
        fail(cat("W[", i, ",", j, "] = ", value, " but W[", j, ",", i,
                 "] = ", mirror));
      }
    }
    if (std::abs(sum - 1.0) > 1e-12) fail(cat("row ", i, " sums to ", sum));
    if (!member(i) && w.at(i, i) != 1.0) {
      fail(cat("non-member row ", i, " is not the identity"));
    }
  }
  if (bad > 5) errors.push_back(cat(what, ": ", bad - 5, " more entries fail"));

  // Power iteration on (W − 11ᵀ/m) restricted to the members, from a
  // fixed start vector; the norm ratio converges to the SLEM from below.
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < n; ++i) {
    if (member(i)) idx.push_back(i);
  }
  std::vector<double> x(n, 0.0), y(n, 0.0);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (const std::size_t i : idx) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    x[i] = static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  }
  const auto center = [&](std::vector<double>& v) {
    double mean = 0.0;
    for (const std::size_t i : idx) mean += v[i];
    mean /= static_cast<double>(idx.size());
    double norm = 0.0;
    for (const std::size_t i : idx) {
      v[i] -= mean;
      norm += v[i] * v[i];
    }
    return std::sqrt(norm);
  };
  double norm = center(x);
  double slem = 0.0;
  for (int k = 0; k < 600 && norm > 0.0; ++k) {
    for (const std::size_t i : idx) x[i] /= norm;
    for (const std::size_t i : idx) {
      double acc = 0.0;
      for (const auto& [j, value] : w.rows[i]) acc += value * x[j];
      y[i] = acc;
    }
    norm = center(y);
    slem = norm;
    std::swap(x, y);
  }
  if (!(slem < 1.0 - 1e-9)) {
    errors.push_back(cat(what, ": SLEM by power iteration is ", slem,
                         ", not below 1"));
  }
  return slem;
}

namespace {

double svm_margin(const ModelShape& shape, const snap::linalg::Vector& p,
                  std::span<const double> x) {
  double m = p[shape.features];
  for (std::size_t i = 0; i < shape.features; ++i) m += p[i] * x[i];
  return m;
}

// Hidden activations and output logits of the 784-30-10 MLP, with the
// layout W1 (hidden × in, row-major), b1, W2 (out × hidden), b2.
void mlp_logits(const ModelShape& shape, const snap::linalg::Vector& p,
                std::span<const double> x, std::vector<double>& hidden,
                std::vector<double>& logits) {
  const std::size_t in = shape.features, hid = shape.hidden,
                    out = shape.classes;
  const double* w1 = p.data();
  const double* b1 = w1 + hid * in;
  const double* w2 = b1 + hid;
  const double* b2 = w2 + out * hid;
  for (std::size_t h = 0; h < hid; ++h) {
    double z = b1[h];
    for (std::size_t i = 0; i < in; ++i) z += w1[h * in + i] * x[i];
    hidden[h] = 1.0 / (1.0 + std::exp(-z));
  }
  for (std::size_t o = 0; o < out; ++o) {
    double z = b2[o];
    for (std::size_t h = 0; h < hid; ++h) z += w2[o * hid + h] * hidden[h];
    logits[o] = z;
  }
}

double weight_norm2(const ModelShape& shape, const snap::linalg::Vector& p) {
  double reg = 0.0;
  if (shape.kind == ModelKind::kLinearSvm) {
    for (std::size_t i = 0; i < shape.features; ++i) reg += p[i] * p[i];
    return reg;
  }
  const std::size_t w1 = shape.hidden * shape.features;
  const std::size_t w2_at = w1 + shape.hidden;
  for (std::size_t i = 0; i < w1; ++i) reg += p[i] * p[i];
  for (std::size_t i = 0; i < shape.classes * shape.hidden; ++i) {
    reg += p[w2_at + i] * p[w2_at + i];
  }
  return reg;
}

}  // namespace

double objective(const ModelShape& shape, const snap::linalg::Vector& params,
                 const std::vector<snap::data::Dataset>& shards) {
  const double reg = 0.5 * shape.l2 * weight_norm2(shape, params);
  std::vector<double> hidden(shape.hidden), logits(shape.classes);
  double total = 0.0;
  for (const auto& shard : shards) {
    double acc = 0.0;
    for (std::size_t s = 0; s < shard.size(); ++s) {
      const auto x = shard.features(s);
      if (shape.kind == ModelKind::kLinearSvm) {
        const double y = shard.label(s) == 1 ? 1.0 : -1.0;
        const double slack = 1.0 - y * svm_margin(shape, params, x);
        if (slack > 0.0) acc += slack * slack;
      } else {
        mlp_logits(shape, params, x, hidden, logits);
        const double top = *std::max_element(logits.begin(), logits.end());
        double z = 0.0;
        for (const double l : logits) z += std::exp(l - top);
        const double p = std::exp(logits[shard.label(s)] - top) / z;
        acc += -std::log(std::max(p, 1e-300));
      }
    }
    total += (shard.empty() ? 0.0 : acc / static_cast<double>(shard.size())) +
             reg;
  }
  return total / static_cast<double>(shards.size());
}

double accuracy(const ModelShape& shape, const snap::linalg::Vector& params,
                const snap::data::Dataset& test) {
  if (test.empty()) return 1.0;
  std::vector<double> hidden(shape.hidden), logits(shape.classes);
  std::size_t right = 0;
  for (std::size_t s = 0; s < test.size(); ++s) {
    const auto x = test.features(s);
    std::size_t predicted = 0;
    if (shape.kind == ModelKind::kLinearSvm) {
      predicted = svm_margin(shape, params, x) > 0.0 ? 1 : 0;
    } else {
      mlp_logits(shape, params, x, hidden, logits);
      predicted = static_cast<std::size_t>(
          std::max_element(logits.begin(), logits.end()) - logits.begin());
    }
    right += predicted == test.label(s) ? 1 : 0;
  }
  return static_cast<double>(right) / static_cast<double>(test.size());
}

double majority_rate(const snap::data::Dataset& data) {
  const auto histogram = data.class_histogram();
  const std::size_t top = *std::max_element(histogram.begin(), histogram.end());
  return static_cast<double>(top) / static_cast<double>(data.size());
}

void check_model_outputs(const ModelShape& shape,
                         const snap::core::TrainResult& result,
                         const std::vector<snap::data::Dataset>& shards,
                         const snap::data::Dataset& test, Errors& errors) {
  const double loss = objective(shape, result.final_params, shards);
  if (!close(loss, result.final_train_loss)) {
    errors.push_back(cat("final_loss ", result.final_train_loss,
                         " but the recomputed objective is ", loss));
  }
  const double acc = accuracy(shape, result.final_params, test);
  if (std::abs(acc - result.final_test_accuracy) >
      0.5 / static_cast<double>(test.size())) {
    errors.push_back(cat("test_accuracy ", result.final_test_accuracy,
                         " but the recomputed accuracy is ", acc));
  }
  const double majority = majority_rate(test);
  if (!(acc > majority)) {
    errors.push_back(cat("test accuracy ", acc,
                         " does not beat the majority-class rate ", majority));
  }
}

void check_same_series(const std::vector<snap::core::IterationStats>& a,
                       const std::vector<snap::core::IterationStats>& b,
                       const std::string& what, Errors& errors) {
  if (a.size() != b.size()) {
    errors.push_back(cat(what, ": ", a.size(), " rounds against ", b.size()));
    return;
  }
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  for (std::size_t r = 0; r < a.size(); ++r) {
    const auto& x = a[r];
    const auto& y = b[r];
    const bool equal =
        same(x.train_loss, y.train_loss) &&
        same(x.test_accuracy, y.test_accuracy) && x.evaluated == y.evaluated &&
        x.bytes == y.bytes && x.cost == y.cost &&
        x.max_node_inbound_bytes == y.max_node_inbound_bytes &&
        x.max_node_outbound_bytes == y.max_node_outbound_bytes &&
        same(x.consensus_residual, y.consensus_residual) &&
        same(x.sim_seconds, y.sim_seconds) && x.links_down == y.links_down &&
        x.nodes_down == y.nodes_down && x.frames_dropped == y.frames_dropped &&
        x.frames_corrupted == y.frames_corrupted &&
        x.frames_retried == y.frames_retried &&
        x.alive_nodes == y.alive_nodes && x.nodes_joined == y.nodes_joined &&
        x.state_sync_bytes == y.state_sync_bytes &&
        x.links_activated == y.links_activated &&
        x.components == y.components &&
        same(x.largest_component_frac, y.largest_component_frac) &&
        x.partition_epoch == y.partition_epoch &&
        x.links_pruned == y.links_pruned &&
        x.effective_edges == y.effective_edges &&
        same(x.slem_after_prune, y.slem_after_prune);
    if (!equal) {
      errors.push_back(cat(what, ": round ", r + 1, " differs (loss ",
                           x.train_loss, " vs ", y.train_loss, ", bytes ",
                           x.bytes, " vs ", y.bytes, ")"));
      return;
    }
  }
}

}  // namespace perfbench
