// Three-layer fully connected neural network.
//
// This is the paper's testbed model: 784 inputs, a hidden layer of 30
// "perceptrons" (sigmoid), 10 softmax outputs, cross-entropy loss —
// ~23.9k parameters. Flat layout:
//   [W1 (hidden × in, row-major) | b1 (hidden) |
//    W2 (out × hidden, row-major) | b2 (out)]
// The gradient is exact backprop over the full provided dataset (EXTRA
// uses deterministic local gradients); stochastic trainers pass a
// mini-batch subset instead.
//
// Kernel exactness contract: loss, loss_gradient and predict return the
// bit patterns of the plain dense loops (one dot product per hidden
// unit over every feature in ascending order, one full-width W1
// gradient row update per hidden unit), with NaN and ±inf in the same
// places. (Which NaN propagates when two meet is left open by IEEE 754
// and by the compiler, in either kernel.) The kernel visits only
// nonzero features and computes four hidden units per pass, which drops
// only terms that add a signed zero; where a dropped term could be NaN
// instead (a non-finite W1 entry, or a non-finite hidden delta) it
// visits every feature. tests/support/reference_mlp.hpp holds the dense
// loops as the oracle; DESIGN.md "Compute kernels" has the argument.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ml/model.hpp"

namespace snap::ml {

struct MlpConfig {
  std::size_t input_dim = 784;
  std::size_t hidden_dim = 30;
  std::size_t output_dim = 10;
  /// L2 strength on both weight matrices. The paper's "conventional"
  /// 3-layer network carries no weight decay, and Fig. 2's unchanged
  /// parameters (weights of always-zero input pixels) exist only when
  /// their gradients are exactly zero — so 0 is the faithful default.
  double l2 = 0.0;
  /// Weight init stddev is init_scale / sqrt(fan_in) (Xavier-style).
  double init_scale = 1.0;
};

class Mlp final : public Model {
 public:
  explicit Mlp(const MlpConfig& config);

  std::size_t param_count() const noexcept override;
  std::string name() const override;

  double loss(const linalg::Vector& params,
              const data::Dataset& data) const override;
  LossGradient loss_gradient(const linalg::Vector& params,
                             const data::Dataset& data) const override;
  std::size_t predict(const linalg::Vector& params,
                      std::span<const double> features) const override;
  linalg::Vector initial_params(common::Rng& rng) const override;

  const MlpConfig& config() const noexcept { return config_; }

  // Flat-layout offsets (exposed for tests).
  std::size_t w1_offset() const noexcept { return 0; }
  std::size_t b1_offset() const noexcept {
    return config_.hidden_dim * config_.input_dim;
  }
  std::size_t w2_offset() const noexcept {
    return b1_offset() + config_.hidden_dim;
  }
  std::size_t b2_offset() const noexcept {
    return w2_offset() + config_.output_dim * config_.hidden_dim;
  }

 private:
  /// True when every W1 entry is finite (the sparse kernel's license
  /// to skip zero features).
  bool w1_finite(const linalg::Vector& params) const noexcept;

  /// Forward pass for one sample over the ascending feature indices
  /// `active` (the nonzero ones, or all when W1 is not finite); fills
  /// hidden activations and output probabilities. Returns the
  /// cross-entropy of `label` (ignored when label == SIZE_MAX).
  double forward(const linalg::Vector& params,
                 std::span<const double> features,
                 std::span<const std::uint32_t> active, std::size_t label,
                 std::span<double> hidden, std::span<double> probs) const;

  MlpConfig config_;
};

}  // namespace snap::ml
