// Self-tests for the benchmark's own checks: each check must accept a
// real training result and reject the same result perturbed by one byte,
// by 1e-6 in loss, or by one asymmetric W entry.
#include <iostream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "data/synthetic_mnist.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "topology/generators.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool accepted, bool want_accept, const std::string& what,
            const Errors& errors) {
  if (accepted == want_accept) {
    std::cerr << "ok   " << what << '\n';
    return;
  }
  ++failures;
  std::cerr << "FAIL " << what << (want_accept ? " was rejected" : " was accepted")
            << '\n';
  for (const auto& e : errors) std::cerr << "     " << e << '\n';
}

struct Fixture {
  snap::topology::Graph graph;
  snap::consensus::SparseWeightMatrix w;
  std::vector<snap::data::Dataset> shards;
  snap::data::Dataset test{1, 2};
  snap::core::TrainResult result;
  std::size_t params = 0;
};

Fixture train_fixture(bool mlp) {
  Fixture f;
  snap::common::Rng rng(7);
  f.graph = snap::topology::make_random_connected(mlp ? 6 : 12, 3.0, rng);
  f.w = snap::consensus::SparseWeightMatrix::max_degree(f.graph);
  snap::data::Dataset train{1, 2};
  if (mlp) {
    snap::data::SyntheticMnistConfig cfg;
    cfg.train_samples = 300;
    cfg.test_samples = 200;
    auto data = snap::data::make_synthetic_mnist(cfg);
    train = std::move(data.train);
    f.test = std::move(data.test);
  } else {
    snap::data::SyntheticCreditConfig cfg;
    cfg.samples = 1000;
    auto split = snap::data::split_train_test(
        snap::data::make_synthetic_credit(cfg), 0.4, 99);
    train = std::move(split.train);
    f.test = std::move(split.test);
  }
  snap::common::Rng part = rng.fork("partition");
  f.shards = snap::data::partition_equal(train, f.graph.node_count(), part);

  snap::core::SnapTrainerConfig c;
  c.alpha = mlp ? 1.0 : 0.5;
  c.ape_warmup_iterations = 3;
  c.convergence.min_iterations = mlp ? 4 : 30;
  c.convergence.max_iterations = c.convergence.min_iterations;
  const snap::ml::LinearSvm svm{snap::ml::LinearSvmConfig{}};
  const snap::ml::Mlp net{snap::ml::MlpConfig{}};
  const snap::ml::Model& model = mlp ? static_cast<const snap::ml::Model&>(net)
                                     : static_cast<const snap::ml::Model&>(svm);
  f.params = model.param_count();
  snap::core::SnapTrainer trainer(f.graph, f.w, model, f.shards, c);
  f.result = trainer.train(f.test);
  return f;
}

void wire_cases(const Fixture& f) {
  const WireExpectation expect_full{f.params, 2 * f.graph.edge_count(), 3,
                                    false};
  Errors errors;
  check_wire(f.result, expect_full, errors);
  expect(errors.empty(), true, "wire: unperturbed result", errors);

  auto round_one = f.result;
  round_one.iterations[0].bytes += 1;
  round_one.iterations[0].cost += 1;
  round_one.total_bytes += 1;
  round_one.total_cost += 1;
  errors.clear();
  check_wire(round_one, expect_full, errors);
  expect(errors.empty(), false, "wire: +1 byte before APE arms", errors);

  auto last = f.result;
  last.iterations.back().bytes += 1;
  last.total_bytes += 1;
  errors.clear();
  check_wire(last, expect_full, errors);
  expect(errors.empty(), false, "wire: +1 byte in the last round", errors);

  auto total = f.result;
  total.total_bytes += 1;
  errors.clear();
  check_wire(total, expect_full, errors);
  expect(errors.empty(), false, "wire: +1 byte in total_bytes", errors);
}

void model_cases(const Fixture& f, const ModelShape& shape,
                 const std::string& name) {
  Errors errors;
  check_model_outputs(shape, f.result, f.shards, f.test, errors);
  expect(errors.empty(), true, name + ": unperturbed loss and accuracy",
         errors);

  auto loss = f.result;
  loss.final_train_loss += 1e-6;
  errors.clear();
  check_model_outputs(shape, loss, f.shards, f.test, errors);
  expect(errors.empty(), false, name + ": loss + 1e-6", errors);

  auto acc = f.result;
  acc.final_test_accuracy += 1.0 / static_cast<double>(f.test.size());
  errors.clear();
  check_model_outputs(shape, acc, f.shards, f.test, errors);
  expect(errors.empty(), false, name + ": accuracy + one sample", errors);
}

void matrix_cases(const Fixture& f) {
  const PlainMatrix w = plain(f.w);
  Errors errors;
  check_mixing_matrix(w, edge_list(f.graph), {}, "W", errors);
  expect(errors.empty(), true, "W: max-degree matrix", errors);

  // One off-diagonal entry moved by 1e-6, its row kept stochastic.
  PlainMatrix asym = w;
  for (auto& [j, value] : asym.rows[0]) {
    if (j != 0) {
      value += 1e-6;
      break;
    }
  }
  for (auto& [j, value] : asym.rows[0]) {
    if (j == 0) value -= 1e-6;
  }
  errors.clear();
  check_mixing_matrix(asym, edge_list(f.graph), {}, "W", errors);
  expect(errors.empty(), false, "W: one asymmetric entry", errors);

  // Identity: stochastic and symmetric, but SLEM = 1.
  PlainMatrix identity;
  identity.n = w.n;
  identity.rows.resize(w.n);
  for (std::size_t i = 0; i < w.n; ++i) {
    identity.rows[i].emplace_back(static_cast<std::uint32_t>(i), 1.0);
  }
  errors.clear();
  check_mixing_matrix(identity, edge_list(f.graph), {}, "W", errors);
  expect(errors.empty(), false, "W: identity (SLEM 1)", errors);
}

void series_cases(const Fixture& f) {
  Errors errors;
  check_same_series(f.result.iterations, f.result.iterations, "series",
                    errors);
  expect(errors.empty(), true, "series: identical", errors);
  auto other = f.result.iterations;
  other[1].bytes += 1;
  errors.clear();
  check_same_series(f.result.iterations, other, "series", errors);
  expect(errors.empty(), false, "series: +1 byte in round 2", errors);
}

}  // namespace

int run_selftest() {
  const Fixture svm = train_fixture(false);
  wire_cases(svm);
  model_cases(svm, ModelShape{ModelKind::kLinearSvm, 24, 0, 2, 1e-2}, "svm");
  matrix_cases(svm);
  series_cases(svm);
  const Fixture mlp = train_fixture(true);
  model_cases(mlp, ModelShape{ModelKind::kMlp, 784, 30, 10, 0.0}, "mlp");
  std::cerr << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
