#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "ml/softmax_regression.hpp"  // softmax_inplace

namespace snap::ml {

namespace {

double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }

bool all_finite(std::span<const double> values) noexcept {
  // x − x is +0 for every finite x and NaN for ±inf and NaN. Four
  // independent lanes keep the scan off one add's latency chain.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      lane[k] += values[i + k] - values[i + k];
    }
  }
  for (; i < values.size(); ++i) lane[0] += values[i] - values[i];
  return lane[0] + lane[1] + lane[2] + lane[3] == 0.0;
}

/// Per-thread buffers reused across calls (predict runs once per test
/// sample, from any pool thread).
struct Scratch {
  std::vector<double> hidden;
  std::vector<double> probs;
  std::vector<double> delta_hidden;
  std::vector<std::uint32_t> active;
};

Scratch& scratch_for(const MlpConfig& config) {
  thread_local Scratch scratch;
  scratch.hidden.resize(config.hidden_dim);
  scratch.probs.resize(config.output_dim);
  scratch.delta_hidden.resize(config.hidden_dim);
  scratch.active.resize(config.input_dim);
  return scratch;
}

/// Ascending indices of the features a dot product with W1 must visit:
/// the nonzero ones (NaN and ±inf count as nonzero) when every W1 entry
/// is finite, all of them otherwise. Writes into `out` (input_dim
/// slots) and returns the count.
std::span<const std::uint32_t> active_features(std::span<const double> x,
                                               bool w1_finite,
                                               std::span<std::uint32_t> out) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[count] = static_cast<std::uint32_t>(i);
    count += (!w1_finite || x[i] != 0.0) ? 1 : 0;
  }
  return out.first(count);
}

}  // namespace

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  SNAP_REQUIRE(config.input_dim >= 1);
  SNAP_REQUIRE(config.input_dim <=
               std::numeric_limits<std::uint32_t>::max());
  SNAP_REQUIRE(config.hidden_dim >= 1);
  SNAP_REQUIRE(config.output_dim >= 2);
  SNAP_REQUIRE(config.l2 >= 0.0);
}

std::size_t Mlp::param_count() const noexcept {
  return config_.hidden_dim * config_.input_dim + config_.hidden_dim +
         config_.output_dim * config_.hidden_dim + config_.output_dim;
}

std::string Mlp::name() const {
  std::ostringstream os;
  os << "mlp-" << config_.input_dim << "-" << config_.hidden_dim << "-"
     << config_.output_dim;
  return os.str();
}

bool Mlp::w1_finite(const linalg::Vector& params) const noexcept {
  return all_finite(std::span<const double>(
      params.data() + w1_offset(), config_.hidden_dim * config_.input_dim));
}

double Mlp::forward(const linalg::Vector& params,
                    std::span<const double> features,
                    std::span<const std::uint32_t> active, std::size_t label,
                    std::span<double> hidden,
                    std::span<double> probs) const {
  const std::size_t in = config_.input_dim;
  const std::size_t hid = config_.hidden_dim;
  const std::size_t out = config_.output_dim;
  const double* w1 = params.data() + w1_offset();
  const double* b1 = params.data() + b1_offset();
  const double* w2 = params.data() + w2_offset();
  const double* b2 = params.data() + b2_offset();
  const double* x = features.data();

  // Four hidden units per pass over the active features: each unit
  // keeps its own accumulator, seeded with b1[h] and fed in ascending
  // feature order, so its sum is the dense loop's operation sequence
  // minus terms that add a zero.
  std::size_t h = 0;
  for (; h + 4 <= hid; h += 4) {
    const double* r0 = w1 + h * in;
    const double* r1 = r0 + in;
    const double* r2 = r1 + in;
    const double* r3 = r2 + in;
    double a0 = b1[h];
    double a1 = b1[h + 1];
    double a2 = b1[h + 2];
    double a3 = b1[h + 3];
    for (const std::uint32_t i : active) {
      const double xi = x[i];
      a0 += r0[i] * xi;
      a1 += r1[i] * xi;
      a2 += r2[i] * xi;
      a3 += r3[i] * xi;
    }
    hidden[h] = sigmoid(a0);
    hidden[h + 1] = sigmoid(a1);
    hidden[h + 2] = sigmoid(a2);
    hidden[h + 3] = sigmoid(a3);
  }
  for (; h < hid; ++h) {
    const double* row = w1 + h * in;
    double acc = b1[h];
    for (const std::uint32_t i : active) acc += row[i] * x[i];
    hidden[h] = sigmoid(acc);
  }
  for (std::size_t o = 0; o < out; ++o) {
    double acc = b2[o];
    const double* row = w2 + o * hid;
    for (std::size_t k = 0; k < hid; ++k) acc += row[k] * hidden[k];
    probs[o] = acc;
  }
  softmax_inplace(probs);
  if (label == std::numeric_limits<std::size_t>::max()) return 0.0;
  return -std::log(std::max(probs[label], 1e-300));
}

double Mlp::loss(const linalg::Vector& params,
                 const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.input_dim);
  Scratch& scratch = scratch_for(config_);
  const bool finite = w1_finite(params);
  double acc = 0.0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto x = data.features(s);
    acc += forward(params, x, active_features(x, finite, scratch.active),
                   data.label(s), scratch.hidden, scratch.probs);
  }
  const double mean =
      data.empty() ? 0.0 : acc / static_cast<double>(data.size());

  double reg = 0.0;
  const std::size_t w1_count = config_.hidden_dim * config_.input_dim;
  const std::size_t w2_count = config_.output_dim * config_.hidden_dim;
  for (std::size_t i = 0; i < w1_count; ++i) {
    reg += params[w1_offset() + i] * params[w1_offset() + i];
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    reg += params[w2_offset() + i] * params[w2_offset() + i];
  }
  return mean + 0.5 * config_.l2 * reg;
}

LossGradient Mlp::loss_gradient(const linalg::Vector& params,
                                const data::Dataset& data) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(data.feature_dim() == config_.input_dim);

  const std::size_t in = config_.input_dim;
  const std::size_t hid = config_.hidden_dim;
  const std::size_t out = config_.output_dim;
  const double* w2 = params.data() + w2_offset();

  LossGradient result;
  result.gradient = linalg::Vector(param_count());
  double* g_w1 = result.gradient.data() + w1_offset();
  double* g_b1 = result.gradient.data() + b1_offset();
  double* g_w2 = result.gradient.data() + w2_offset();
  double* g_b2 = result.gradient.data() + b2_offset();

  Scratch& scratch = scratch_for(config_);
  const std::span<double> hidden = scratch.hidden;
  const std::span<double> probs = scratch.probs;
  const std::span<double> delta_hidden = scratch.delta_hidden;
  const bool finite = w1_finite(params);
  double loss_acc = 0.0;

  for (std::size_t s = 0; s < data.size(); ++s) {
    const auto x = data.features(s);
    const std::size_t label = data.label(s);
    const std::span<const std::uint32_t> active =
        active_features(x, finite, scratch.active);
    loss_acc += forward(params, x, active, label, hidden, probs);

    // Output layer: δ_o = p_o − 1{o == label}.
    for (std::size_t o = 0; o < out; ++o) {
      const double delta = probs[o] - (o == label ? 1.0 : 0.0);
      g_b2[o] += delta;
      double* g_row = g_w2 + o * hid;
      for (std::size_t h = 0; h < hid; ++h) {
        g_row[h] += delta * hidden[h];
      }
    }
    // Hidden layer: δ_h = σ'(z_h) Σ_o w2[o,h]·δ_o.
    for (std::size_t h = 0; h < hid; ++h) {
      double back = 0.0;
      for (std::size_t o = 0; o < out; ++o) {
        back += w2[o * hid + h] * (probs[o] - (o == label ? 1.0 : 0.0));
      }
      delta_hidden[h] = back * hidden[h] * (1.0 - hidden[h]);
    }
    for (std::size_t h = 0; h < hid; ++h) {
      const double dh = delta_hidden[h];
      if (dh == 0.0) continue;
      g_b1[h] += dh;
      double* g_row = g_w1 + h * in;
      if (active.size() < in && std::isfinite(dh)) {
        // dh·(±0) is a signed zero, and a row that starts at +0 never
        // becomes −0, so skipping zero features leaves it unchanged.
        for (const std::uint32_t i : active) g_row[i] += dh * x[i];
      } else {
        // Every feature is active, or inf·0 would be NaN: the full row.
        for (std::size_t i = 0; i < in; ++i) g_row[i] += dh * x[i];
      }
    }
  }

  if (!data.empty()) {
    const double inv = 1.0 / static_cast<double>(data.size());
    result.gradient *= inv;
    loss_acc *= inv;
  }

  // L2 on both weight matrices.
  double reg = 0.0;
  const std::size_t w1_count = hid * in;
  const std::size_t w2_count = out * hid;
  for (std::size_t i = 0; i < w1_count; ++i) {
    const double w = params[w1_offset() + i];
    result.gradient[w1_offset() + i] += config_.l2 * w;
    reg += w * w;
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    const double w = params[w2_offset() + i];
    result.gradient[w2_offset() + i] += config_.l2 * w;
    reg += w * w;
  }
  result.loss = loss_acc + 0.5 * config_.l2 * reg;
  return result;
}

std::size_t Mlp::predict(const linalg::Vector& params,
                         std::span<const double> features) const {
  SNAP_REQUIRE(params.size() == param_count());
  SNAP_REQUIRE(features.size() == config_.input_dim);
  Scratch& scratch = scratch_for(config_);
  forward(params, features,
          active_features(features, w1_finite(params), scratch.active),
          std::numeric_limits<std::size_t>::max(), scratch.hidden,
          scratch.probs);
  return static_cast<std::size_t>(
      std::max_element(scratch.probs.begin(), scratch.probs.end()) -
      scratch.probs.begin());
}

linalg::Vector Mlp::initial_params(common::Rng& rng) const {
  linalg::Vector params(param_count());
  const double w1_scale =
      config_.init_scale / std::sqrt(static_cast<double>(config_.input_dim));
  const double w2_scale =
      config_.init_scale / std::sqrt(static_cast<double>(config_.hidden_dim));
  const std::size_t w1_count = config_.hidden_dim * config_.input_dim;
  const std::size_t w2_count = config_.output_dim * config_.hidden_dim;
  for (std::size_t i = 0; i < w1_count; ++i) {
    params[w1_offset() + i] = rng.normal(0.0, w1_scale);
  }
  for (std::size_t i = 0; i < w2_count; ++i) {
    params[w2_offset() + i] = rng.normal(0.0, w2_scale);
  }
  return params;
}

}  // namespace snap::ml
