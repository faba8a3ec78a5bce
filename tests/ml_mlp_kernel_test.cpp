// Bitwise oracle for the MLP kernel: Mlp::loss, every entry of
// Mlp::loss_gradient and Mlp::predict must match the dense reference
// loops (tests/support/reference_mlp.hpp) on seeded cases that stress
// the sparse-input, four-units-per-pass kernel: exact-zero and −0.0
// pixels, all-zero and fully dense samples, hidden widths around the
// four-wide blocking, both L2 settings, and ±inf/NaN planted in W1, W2
// and the features. Every non-NaN value — signed zeros and infinities
// included — is compared by bit pattern (memcmp), and a NaN must sit
// exactly where the oracle has one. The NaN's own sign and payload are
// not compared: when two NaNs meet, IEEE 754 leaves open which one
// propagates, and the compiler may commute the operands of + and ·, so
// even the dense loop built in two places can disagree there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/synthetic_mnist.hpp"
#include "linalg/vector.hpp"
#include "ml/mlp.hpp"
#include "support/reference_mlp.hpp"

namespace snap::ml {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Same bits, or both NaN (see the header for why NaN payloads are
/// not compared).
bool same_value(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(double));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g (0x%016llx)", v,
                static_cast<unsigned long long>(u));
  return buf;
}

/// Where a case plants non-finite values.
enum class Plant { kNone, kW1, kW2, kFeatures };

const char* plant_name(Plant p) {
  switch (p) {
    case Plant::kNone:
      return "none";
    case Plant::kW1:
      return "W1";
    case Plant::kW2:
      return "W2";
    case Plant::kFeatures:
      return "features";
  }
  return "?";
}

/// Seeded samples cycling through the shapes the kernel treats
/// differently: mostly-zero rows with some −0.0 pixels, all-zero rows
/// (±0 only), and fully dense rows with no zero at all.
data::Dataset make_data(std::size_t in, std::size_t classes,
                        std::size_t samples, common::Rng& rng) {
  data::Dataset d(in, classes);
  std::vector<double> row(in);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < in; ++i) {
      switch (s % 3) {
        case 0: {  // sparse: ~70% exact zeros, a share of them −0.0
          const double u = rng.uniform();
          row[i] = u < 0.55 ? 0.0 : u < 0.7 ? -0.0 : rng.normal();
          break;
        }
        case 1:  // all zero, mixed signs
          row[i] = rng.uniform() < 0.5 ? 0.0 : -0.0;
          break;
        default: {  // dense: no zero anywhere
          double v = rng.normal();
          if (v == 0.0) v = 0.5;
          row[i] = v;
          break;
        }
      }
    }
    d.add(row, static_cast<std::size_t>(rng.uniform_u64(classes)));
  }
  return d;
}

void plant_non_finite(const Mlp& mlp, Plant plant, linalg::Vector& params,
                      data::Dataset& data, common::Rng& rng) {
  const MlpConfig& c = mlp.config();
  const double values[] = {kInf, -kInf, kNaN};
  switch (plant) {
    case Plant::kNone:
      return;
    case Plant::kW1: {
      // One entry per value, in columns most samples leave at zero:
      // the dense loop turns each into NaN through inf·0 / NaN·0.
      for (const double v : values) {
        const std::size_t h = rng.uniform_u64(c.hidden_dim);
        const std::size_t i = rng.uniform_u64(c.input_dim);
        params[mlp.w1_offset() + h * c.input_dim + i] = v;
      }
      return;
    }
    case Plant::kW2: {
      // Non-finite output weights poison the logits and make the
      // hidden deltas ±inf or NaN — the per-row backward fallback.
      const std::size_t o = rng.uniform_u64(c.output_dim);
      const std::size_t h = rng.uniform_u64(c.hidden_dim);
      params[mlp.w2_offset() + o * c.hidden_dim + h] =
          values[rng.uniform_u64(3)];
      return;
    }
    case Plant::kFeatures: {
      // Rebuild the dataset with a few non-finite pixels: a non-finite
      // feature is never skipped as "zero".
      data::Dataset planted(c.input_dim, c.output_dim);
      std::vector<double> row(c.input_dim);
      for (std::size_t s = 0; s < data.size(); ++s) {
        const auto x = data.features(s);
        row.assign(x.begin(), x.end());
        if (s % 4 == 1) {
          row[rng.uniform_u64(c.input_dim)] = values[s % 3];
        }
        planted.add(row, data.label(s));
      }
      data = std::move(planted);
      return;
    }
  }
}

void expect_same_loss_gradient(const Mlp& mlp, const linalg::Vector& params,
                               const data::Dataset& data) {
  const double loss = mlp.loss(params, data);
  const double ref_loss = testing::reference_loss(mlp, params, data);
  EXPECT_TRUE(same_value(loss, ref_loss))
      << "loss " << bits_of(loss) << " vs oracle " << bits_of(ref_loss);

  const LossGradient lg = mlp.loss_gradient(params, data);
  const LossGradient ref = testing::reference_loss_gradient(mlp, params, data);
  EXPECT_TRUE(same_value(lg.loss, ref.loss))
      << "loss_gradient.loss " << bits_of(lg.loss) << " vs oracle "
      << bits_of(ref.loss);
  ASSERT_EQ(lg.gradient.size(), ref.gradient.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < ref.gradient.size(); ++k) {
    if (same_value(lg.gradient[k], ref.gradient[k])) continue;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "gradient[" << k << "] " << bits_of(lg.gradient[k])
                    << " vs oracle " << bits_of(ref.gradient[k]);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// The whole dataset, then each sample alone: in a mixed batch a dense
/// sample can turn a whole gradient row into NaN and hide what a sparse
/// sample would have left in it.
void expect_matches_oracle(const Mlp& mlp, const linalg::Vector& params,
                           const data::Dataset& data) {
  expect_same_loss_gradient(mlp, params, data);
  for (std::size_t s = 0; s < data.size(); ++s) {
    SCOPED_TRACE("sample " + std::to_string(s));
    const std::size_t index[] = {s};
    expect_same_loss_gradient(mlp, params, data.subset(index));
    EXPECT_EQ(mlp.predict(params, data.features(s)),
              testing::reference_predict(mlp, params, data.features(s)));
  }
}

TEST(MlpKernelTest, BitwiseEqualsDenseOracleAcrossShapesAndPlants) {
  std::size_t cases = 0;
  for (const std::size_t hidden : {1u, 3u, 4u, 5u, 30u}) {
    for (const double l2 : {0.0, 0.01}) {
      for (const Plant plant :
           {Plant::kNone, Plant::kW1, Plant::kW2, Plant::kFeatures}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE("hidden " + std::to_string(hidden) + ", l2 " +
                       std::to_string(l2) + ", plant " + plant_name(plant) +
                       ", seed " + std::to_string(seed));
          MlpConfig cfg;
          cfg.input_dim = 37;
          cfg.hidden_dim = hidden;
          cfg.output_dim = 4;
          cfg.l2 = l2;
          const Mlp mlp(cfg);
          common::Rng rng(seed * 1009 + hidden);
          linalg::Vector params = mlp.initial_params(rng);
          // Negative-zero biases: an all-zero sample then sums to −0
          // densely and to −0 or +0 sparsely; sigmoid maps both to 0.5.
          params[mlp.b1_offset()] = -0.0;
          data::Dataset data = make_data(cfg.input_dim, cfg.output_dim, 12,
                                         rng);
          plant_non_finite(mlp, plant, params, data, rng);
          expect_matches_oracle(mlp, params, data);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 120u);
}

// The workload's own shape: 784-30-10 on synthetic MNIST (≈70% exact
// zero pixels), at the initial parameters and after a few descent
// steps, so the deltas and hidden activations are the ones training
// actually produces.
TEST(MlpKernelTest, BitwiseEqualsDenseOracleOnSyntheticMnist) {
  data::SyntheticMnistConfig dcfg;
  dcfg.train_samples = 40;
  dcfg.test_samples = 10;
  dcfg.seed = 3;
  const data::SyntheticMnist mnist = data::make_synthetic_mnist(dcfg);
  const Mlp mlp{MlpConfig{}};
  common::Rng rng(17);
  linalg::Vector params = mlp.initial_params(rng);
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    expect_matches_oracle(mlp, params, mnist.train);
    for (std::size_t s = 0; s < mnist.test.size(); ++s) {
      EXPECT_EQ(mlp.predict(params, mnist.test.features(s)),
                testing::reference_predict(mlp, params,
                                           mnist.test.features(s)));
    }
    params.axpy(-0.5, testing::reference_loss_gradient(mlp, params,
                                                       mnist.train)
                          .gradient);
  }
}

// Predict reuses per-thread scratch across calls: interleaving models
// of different shapes on one thread must not leak one call's buffers
// into the next.
TEST(MlpKernelTest, PredictScratchIsResizedPerCall) {
  MlpConfig wide;
  wide.input_dim = 9;
  wide.hidden_dim = 7;
  wide.output_dim = 5;
  MlpConfig narrow;
  narrow.input_dim = 6;
  narrow.hidden_dim = 2;
  narrow.output_dim = 3;
  const Mlp a(wide);
  const Mlp b(narrow);
  common::Rng rng(23);
  const linalg::Vector pa = a.initial_params(rng);
  const linalg::Vector pb = b.initial_params(rng);
  const data::Dataset da = make_data(wide.input_dim, wide.output_dim, 9, rng);
  const data::Dataset db =
      make_data(narrow.input_dim, narrow.output_dim, 9, rng);
  for (std::size_t s = 0; s < 9; ++s) {
    EXPECT_EQ(a.predict(pa, da.features(s)),
              testing::reference_predict(a, pa, da.features(s)));
    EXPECT_EQ(b.predict(pb, db.features(s)),
              testing::reference_predict(b, pb, db.features(s)));
  }
  EXPECT_TRUE(same_value(a.loss(pa, da), testing::reference_loss(a, pa, da)));
  EXPECT_TRUE(same_value(b.loss(pb, db), testing::reference_loss(b, pb, db)));
}

}  // namespace
}  // namespace snap::ml
