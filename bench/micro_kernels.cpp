// google-benchmark micro-kernels for SNAP's hot paths, plus the §IV-C
// frame-format analysis (format A vs B crossover at N = 2M + 1), and the
// per-round phases of the SNAP round engine (collect + backlog, apply,
// mailbox, mean).
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "baselines/terngrad.hpp"
#include "common/rng.hpp"
#include "consensus/weight_matrix.hpp"
#include "consensus/weight_optimizer.hpp"
#include "core/link_backlog.hpp"
#include "core/snap_node.hpp"
#include "data/synthetic_credit.hpp"
#include "linalg/eigen.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "net/frame.hpp"
#include "net/mailbox.hpp"
#include "runtime/fabric.hpp"
#include "topology/generators.hpp"

namespace {

using namespace snap;

void BM_JacobiEigenvalues(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  linalg::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      const double v = rng.normal();
      m(r, c) = v;
      m(c, r) = v;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigenvalues_symmetric(m));
  }
}
BENCHMARK(BM_JacobiEigenvalues)->Arg(20)->Arg(60)->Arg(100);

void BM_MaxDegreeWeights(benchmark::State& state) {
  common::Rng rng(2);
  const auto g = topology::make_random_connected(
      static_cast<std::size_t>(state.range(0)), 3.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::max_degree_weights(g));
  }
}
BENCHMARK(BM_MaxDegreeWeights)->Arg(60)->Arg(200);

void BM_WeightOptimization(benchmark::State& state) {
  common::Rng rng(3);
  const auto g = topology::make_random_connected(
      static_cast<std::size_t>(state.range(0)), 3.0, rng);
  consensus::WeightOptimizerConfig cfg;
  cfg.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::minimize_slem(g, cfg));
  }
}
BENCHMARK(BM_WeightOptimization)->Arg(20)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_FrameEncode(benchmark::State& state) {
  const auto total = static_cast<std::uint32_t>(state.range(0));
  const auto sent = static_cast<std::size_t>(state.range(1));
  common::Rng rng(4);
  const auto idx = rng.sample_without_replacement(total, sent);
  std::vector<std::size_t> sorted(idx.begin(), idx.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<net::ParamUpdate> updates;
  for (const auto i : sorted) {
    updates.push_back({static_cast<std::uint32_t>(i), rng.normal()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode_update_frame(total, updates));
  }
}
BENCHMARK(BM_FrameEncode)
    ->Args({23'860, 23'860})
    ->Args({23'860, 1'000})
    ->Args({23'860, 10});

void BM_FrameDecode(benchmark::State& state) {
  const auto total = static_cast<std::uint32_t>(state.range(0));
  const auto sent = static_cast<std::size_t>(state.range(1));
  common::Rng rng(5);
  const auto idx = rng.sample_without_replacement(total, sent);
  std::vector<std::size_t> sorted(idx.begin(), idx.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<net::ParamUpdate> updates;
  for (const auto i : sorted) {
    updates.push_back({static_cast<std::uint32_t>(i), rng.normal()});
  }
  const auto bytes = net::encode_update_frame(total, updates);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_update_frame(bytes));
  }
}
BENCHMARK(BM_FrameDecode)->Args({23'860, 23'860})->Args({23'860, 10});

void BM_SvmGradient(benchmark::State& state) {
  data::SyntheticCreditConfig cfg;
  cfg.samples = static_cast<std::size_t>(state.range(0));
  const auto dataset = data::make_synthetic_credit(cfg);
  const ml::LinearSvm svm{ml::LinearSvmConfig{}};
  common::Rng rng(6);
  const linalg::Vector params = svm.initial_params(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm.loss_gradient(params, dataset));
  }
}
BENCHMARK(BM_SvmGradient)->Arg(1'000)->Arg(10'000);

void BM_MlpGradient(benchmark::State& state) {
  common::Rng rng(7);
  data::Dataset d(784, 10);
  std::vector<double> row(784);
  for (int s = 0; s < state.range(0); ++s) {
    for (double& px : row) px = rng.uniform();
    d.add(row, static_cast<std::size_t>(rng.uniform_u64(10)));
  }
  const ml::Mlp mlp{ml::MlpConfig{}};
  common::Rng init(8);
  const linalg::Vector params = mlp.initial_params(init);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.loss_gradient(params, d));
  }
}
BENCHMARK(BM_MlpGradient)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_Ternarize(benchmark::State& state) {
  common::Rng rng(9);
  linalg::Vector g(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.normal();
  common::Rng draw(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::ternarize(g, draw));
  }
}
BENCHMARK(BM_Ternarize)->Arg(23'860);

void BM_AllPairsHops(benchmark::State& state) {
  common::Rng rng(11);
  const auto g = topology::make_random_connected(
      static_cast<std::size_t>(state.range(0)), 3.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.all_pairs_hops());
  }
}
BENCHMARK(BM_AllPairsHops)->Arg(100);

// ---- Round-engine phases ------------------------------------------------

/// SnapNodes on `graph` with a model of `params` parameters (25: the
/// credit SVM, 23,860: the paper's MLP), uniform mixing rows, empty
/// shards, and per-node distinct iterates.
struct NodeFixture {
  explicit NodeFixture(const topology::Graph& graph, std::size_t params)
      : svm(ml::LinearSvmConfig{}), mlp(ml::MlpConfig{}) {
    const ml::Model& model =
        params == svm.param_count() ? static_cast<const ml::Model&>(svm) : mlp;
    common::Rng rng(12);
    const linalg::Vector x0 = model.initial_params(rng);
    nodes.reserve(graph.node_count());
    for (topology::NodeId i = 0; i < graph.node_count(); ++i) {
      std::vector<topology::NodeId> neighbors = graph.neighbors(i);
      std::sort(neighbors.begin(), neighbors.end());
      const double w = 1.0 / static_cast<double>(neighbors.size() + 1);
      std::vector<double> weights(neighbors.size(), w);
      nodes.emplace_back(i, model, data::Dataset(1, 2), std::move(neighbors),
                         std::move(weights), w);
      nodes.back().set_initial(x0);
    }
    linalg::Vector x(x0.size());
    for (auto& node : nodes) {
      for (std::size_t p = 0; p < x.size(); ++p) x[p] = rng.normal();
      node.adopt_params(x);
    }
  }
  ml::LinearSvm svm;
  ml::Mlp mlp;
  std::vector<core::SnapNode> nodes;
};

/// One sync round of the trainer's collect phase, serially over every
/// node: filter (send-all, so each link carries N updates), merge into
/// the per-link backlog, and drain live links into frames. range(1) = 1
/// keeps each node's first link down, so its run merges every round
/// without draining (all-tie merges against a full run).
void BM_CollectBacklog(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool one_down = state.range(1) != 0;
  common::Rng rng(13);
  const auto graph = topology::make_random_connected(n, 4.0, rng);
  NodeFixture fixture(graph, 25);
  auto& nodes = fixture.nodes;
  core::LinkBacklog backlog(n, 25);
  using Envelope = runtime::Envelope<std::vector<net::ParamUpdate>>;
  std::vector<std::vector<Envelope>> staged(n);
  for (auto _ : state) {
    for (topology::NodeId i = 0; i < n; ++i) {
      const core::SnapNode::Outgoing outgoing =
          nodes[i].collect_updates(core::FilterMode::kSendAll, 0.0);
      std::vector<Envelope> envelopes;
      const auto& neighbors = nodes[i].neighbors();
      envelopes.reserve(neighbors.size());
      for (std::size_t s = 0; s < neighbors.size(); ++s) {
        auto& queued = backlog.merge(i, neighbors[s], outgoing.updates);
        if (one_down && s == 0) continue;
        auto frame = std::exchange(queued, {});
        const std::size_t bytes = net::encoded_frame_bytes(25, frame.size());
        envelopes.push_back({neighbors[s], std::move(frame), bytes});
      }
      staged[i] = std::move(envelopes);
    }
    benchmark::DoNotOptimize(staged.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CollectBacklog)
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Unit(benchmark::kMillisecond);

/// One node's delivery phase: rotate the view double-buffer, then fold a
/// full N-entry frame from each of its 4 neighbors into its views.
void BM_ApplyUpdate(benchmark::State& state) {
  const auto params = static_cast<std::size_t>(state.range(0));
  NodeFixture fixture(topology::make_star(5), params);
  core::SnapNode& hub = fixture.nodes[0];
  std::vector<net::ParamUpdate> frame(params);
  for (std::uint32_t p = 0; p < params; ++p) frame[p] = {p, 0.5 * p};
  for (auto _ : state) {
    hub.advance_views();
    for (const topology::NodeId j : hub.neighbors()) hub.apply_update(j, frame);
    benchmark::DoNotOptimize(hub.view_of(1).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4 *
                          static_cast<std::int64_t>(params));
}
BENCHMARK(BM_ApplyUpdate)->Arg(25)->Arg(23'860);

/// One round of mailbox traffic at n = 10⁴, degree 4: every node posts a
/// heartbeat (empty frame) to each neighbor, the round flips, every
/// inbox is read. Empty payloads isolate the mailbox's own storage.
void BM_MailboxPostFlip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(14);
  const auto graph = topology::make_random_connected(n, 4.0, rng);
  net::RoundMailbox<std::vector<net::ParamUpdate>> mailbox(n);
  for (auto _ : state) {
    for (topology::NodeId i = 0; i < n; ++i) {
      for (const topology::NodeId j : graph.neighbors(i)) mailbox.post(i, j, {});
    }
    mailbox.flip_round();
    std::size_t delivered = 0;
    for (topology::NodeId i = 0; i < n; ++i) {
      delivered += mailbox.inbox(i).size();
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * graph.edge_count()));
}
BENCHMARK(BM_MailboxPostFlip)->Arg(10'000)->Unit(benchmark::kMillisecond);

/// The evaluate phase's mean model: range(0) nodes of range(1)
/// parameters (10⁴ × 25 as sync-edge-10k, 48 × 23,860 as mlp-paper-48)
/// on a one-thread pool.
void BM_MeanOf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto params = static_cast<std::size_t>(state.range(1));
  common::Rng rng(15);
  NodeFixture fixture(topology::make_random_connected(n, 3.0, rng), params);
  const std::vector<bool> alive(n, true);
  common::ThreadPool pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mean_params(fixture.nodes, alive, pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * params));
}
BENCHMARK(BM_MeanOf)->Args({10'000, 25})->Args({48, 23'860});

}  // namespace

BENCHMARK_MAIN();
