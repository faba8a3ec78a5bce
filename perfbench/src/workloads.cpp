#include "workloads.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "baselines/centralized.hpp"
#include "common/rng.hpp"
#include "consensus/mixing_spectrum.hpp"
#include "consensus/sparse_weight_matrix.hpp"
#include "consensus/topology_sparsifier.hpp"
#include "consensus/weight_optimizer.hpp"
#include "core/snap_trainer.hpp"
#include "data/partition.hpp"
#include "data/synthetic_credit.hpp"
#include "data/synthetic_mnist.hpp"
#include "ml/linear_svm.hpp"
#include "ml/mlp.hpp"
#include "topology/generators.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using snap::core::IterationStats;
using snap::core::SnapTrainer;
using snap::core::SnapTrainerConfig;
using snap::core::TrainResult;
using snap::data::Dataset;
using snap::topology::Graph;

// ---------------------------------------------------------------------
// Set-up bookkeeping: each set-up call is timed (and traced), counted as
// one operation, and summed into setup_s.

struct Setup {
  Recorder* recorder = nullptr;
  double total_s = 0.0;
  std::uint64_t steps = 0;
  std::map<std::string, double> step_s;

  template <typename Fn>
  auto step(const std::string& name, Fn&& fn) {
    ScopedSpan span(recorder, SpanKind::kSetup,
                    recorder ? recorder->label(name) : 0);
    const double start = now_s();
    auto out = fn();
    const double seconds = now_s() - start;
    total_s += seconds;
    step_s[name] += seconds;
    ++steps;
    return out;
  }
};

// ---------------------------------------------------------------------
// Training with optional tracing.

struct TrainRun {
  TrainResult result;
  double init_s = 0.0;   ///< trainer construction
  double train_s = 0.0;  ///< wall time of train()
  RoundProfile profile;  ///< filled when traced
};

using MakeTrainer =
    std::function<std::unique_ptr<SnapTrainer>(const snap::ml::Model&)>;

// Constructs the trainer (the last set-up step) and trains. With a
// recorder, the model is wrapped in TracingModel and an observer closes
// a round span at every round boundary.
TrainRun train_once(const MakeTrainer& make, const snap::ml::Model& model,
                    const Dataset& test, Setup& setup,
                    const std::string& spans_path) {
  TrainRun out;
  Recorder* recorder = setup.recorder;
  std::optional<TracingModel> traced;
  if (recorder) traced.emplace(model, *recorder);
  const snap::ml::Model& used = recorder ? *traced : model;
  std::unique_ptr<SnapTrainer> trainer =
      setup.step("core.trainer_init", [&] { return make(used); });
  out.init_s = setup.step_s["core.trainer_init"];

  std::int64_t boundary = 0;
  if (recorder) {
    trainer->set_observer(
        [&](std::size_t round, const std::vector<snap::core::SnapNode>&) {
          const std::int64_t t = recorder->now_ns();
          recorder->record(SpanKind::kRound, boundary, t);
          boundary = t;
          recorder->set_round(static_cast<std::uint32_t>(round + 1));
        });
    recorder->set_round(1);
    boundary = recorder->now_ns();
  }
  const std::int64_t train_start = boundary;
  const double start = now_s();
  out.result = trainer->train(test);
  out.train_s = now_s() - start;
  if (recorder) {
    recorder->record(SpanKind::kTrain, train_start, recorder->now_ns());
    const std::vector<Span> spans = recorder->collect();
    out.profile = profile_rounds(spans);
    if (!spans_path.empty()) recorder->write_csv(spans_path);
  }
  return out;
}

// ---------------------------------------------------------------------
// Metrics shared by the workloads.

void record_e2e(EpisodeResult& ep, const Setup& setup, const TrainRun& run) {
  const double rounds = static_cast<double>(run.result.iterations.size());
  ep.e2e["setup_s"] = setup.total_s;
  ep.e2e["rounds_per_s"] = rounds / run.train_s;
  ep.e2e["bytes_per_round"] =
      static_cast<double>(run.result.total_bytes) / rounds;
  ep.e2e["final_loss"] = run.result.final_train_loss;
  ep.e2e["test_accuracy"] = run.result.final_test_accuracy;
}

// A round is an epoch round when the member set, a join, or the
// component structure changed in it: the rounds where the trainer
// re-projects W and restarts EXTRA.
std::vector<bool> epoch_rounds(const std::vector<IterationStats>& series) {
  std::vector<bool> out(series.size(), false);
  for (std::size_t r = 0; r < series.size(); ++r) {
    const auto& it = series[r];
    if (r == 0) continue;
    const auto& prev = series[r - 1];
    out[r] = it.alive_nodes != prev.alive_nodes || it.nodes_joined > 0 ||
             it.partition_epoch != prev.partition_epoch;
  }
  return out;
}

void record_layers(EpisodeResult& ep, const Setup& setup, const TrainRun& run,
                   std::size_t warmup, std::uint64_t directed_links,
                   std::size_t params, bool gossip) {
  for (const auto& [name, seconds] : setup.step_s) {
    ep.layer[name + "_s"] = seconds;
  }
  const auto& series = run.result.iterations;
  const double rounds = static_cast<double>(series.size());
  const RoundProfile& p = run.profile;

  ep.layer["core.traced_rounds_per_s"] = rounds / run.train_s;
  ep.layer["core.first_round_ms"] = p.round_ms.empty() ? 0.0 : p.round_ms[0];
  ep.layer["ml.gradient_calls"] = static_cast<double>(p.gradient_calls);
  ep.layer["ml.gradient_cpu_s"] = p.gradient_busy_s;
  ep.layer["ml.gradient_us_per_call"] =
      p.gradient_calls ? 1e6 * p.gradient_busy_s /
                             static_cast<double>(p.gradient_calls)
                       : 0.0;
  ep.layer["ml.eval_calls"] = static_cast<double>(p.loss_calls);
  ep.layer["ml.eval_cpu_s"] = p.loss_busy_s;
  ep.layer["ml.predict_calls"] = static_cast<double>(p.predict_calls);
  ep.layer["ml.predict_cpu_s"] = p.predict_busy_s;

  const std::vector<bool> epochs = epoch_rounds(series);
  auto& round_ms = ep.pooled["round_ms"];
  auto& self_ms = ep.pooled["round_self_ms"];
  auto& epoch_ms = ep.pooled["epoch_round_ms"];
  auto& steady_ms = ep.pooled["steady_round_ms"];
  for (std::size_t r = 0; r < p.round_ms.size() && r < series.size(); ++r) {
    round_ms.push_back(p.round_ms[r]);
    self_ms.push_back(p.round_self_ms[r]);
    (epochs[r] ? epoch_ms : steady_ms).push_back(p.round_ms[r]);
  }

  double epochs_seen = 0, activated = 0, links_down = 0, nodes_down = 0,
         state_sync = 0, sent = 0, full = 0;
  std::vector<double> inbound;
  const std::uint64_t frame = full_frame_bytes(params);
  for (std::size_t r = 0; r < series.size(); ++r) {
    const auto& it = series[r];
    epochs_seen += epochs[r] ? 1 : 0;
    activated += static_cast<double>(it.links_activated);
    links_down += static_cast<double>(it.links_down);
    nodes_down += static_cast<double>(it.nodes_down);
    state_sync += static_cast<double>(it.state_sync_bytes);
    inbound.push_back(static_cast<double>(it.max_node_inbound_bytes));
    if (r >= warmup) {
      sent += static_cast<double>(it.bytes - it.state_sync_bytes);
      full += static_cast<double>(
          gossip ? 2 * it.links_activated * frame : directed_links * frame);
    }
  }
  ep.layer["runtime.membership_epochs"] = epochs_seen;
  ep.layer["runtime.links_activated_per_round"] = activated / rounds;
  ep.layer["runtime.links_down_per_round"] = links_down / rounds;
  ep.layer["runtime.nodes_down_per_round"] = nodes_down / rounds;
  ep.layer["net.state_sync_bytes"] = state_sync;
  ep.layer["net.max_node_inbound_bytes_p50"] = median(inbound);
  ep.layer["core.ape_send_ratio"] = full > 0 ? sent / full : 0.0;
  ep.layer["core.consensus_residual_final"] =
      series.empty() ? 0.0 : series.back().consensus_residual;
  ep.layer["consensus.links_pruned"] =
      series.empty() ? 0.0 : static_cast<double>(series.back().links_pruned);
  ep.layer["consensus.slem_after_prune"] =
      series.empty() ? 0.0 : series.back().slem_after_prune;
}

// One consensus::mixing_extremes call, timed. Returns false when the
// spectral layer throws (the operation failed).
bool spectral_probe(const snap::consensus::SparseWeightMatrix& w,
                    EpisodeResult& ep, std::string& message) {
  const double start = now_s();
  bool ok = true;
  try {
    (void)snap::consensus::mixing_extremes(w);
  } catch (const std::exception& e) {
    ok = false;
    message = e.what();
  }
  ep.layer["consensus.extremes_ms"] = 1e3 * (now_s() - start);
  return ok;
}

// ---------------------------------------------------------------------
// sync-edge-10k: credit SVM on n = 10⁴ edge servers, sync fabric.

constexpr std::size_t kSyncNodes = 10'000;
constexpr double kSyncDegree = 4.0;
constexpr std::size_t kSyncRounds = 30;
constexpr std::size_t kSyncThreads = 2;
constexpr std::size_t kApeWarmup = 5;
// 0.3 keeps EXTRA stable on 2-sample shards: at 0.5 the n = 10⁴ run's
// consensus residual grows ~17x over 50 rounds while the mean model's
// loss still falls.
constexpr double kSvmAlpha = 0.3;
constexpr double kMlpAlpha = 1.0;
// The deployment (topology) is fixed; the seed varies the test split,
// sample placement and model initialization. A fixed graph also keeps
// the spectral probe's input independent of the seed.
constexpr std::uint64_t kSyncTopologySeed = 0x5EED10000ULL;

SnapTrainerConfig svm_trainer_config(std::uint64_t seed, std::size_t rounds,
                                     std::size_t threads) {
  SnapTrainerConfig c;
  c.alpha = kSvmAlpha;
  c.ape.initial_budget_fraction = 0.10;
  c.ape_warmup_iterations = kApeWarmup;
  c.convergence.min_iterations = rounds;
  c.convergence.max_iterations = rounds;
  c.threads = threads;
  c.seed = seed;
  return c;
}

struct CreditData {
  Dataset train{1, 2};
  Dataset test{1, 2};
};

// The credit data set is fixed (one generator draw from a fixed seed, as
// a deployment's data would be); the run's seed picks which samples are
// held out for test. The generator's seed also draws its signal, so a
// per-run generator seed would move final_loss by ~10% between seeds.
constexpr std::uint64_t kCreditDataSeed = 0xC4ED17ULL;

CreditData make_credit(std::uint64_t seed, std::size_t train_samples,
                       std::size_t test_samples) {
  snap::data::SyntheticCreditConfig cfg;
  cfg.samples = train_samples + test_samples;
  cfg.seed = kCreditDataSeed;
  const Dataset all = snap::data::make_synthetic_credit(cfg);
  auto split = snap::data::split_train_test(
      all,
      static_cast<double>(test_samples) / static_cast<double>(cfg.samples),
      snap::common::Rng(seed).fork("split").seed());
  return CreditData{std::move(split.train), std::move(split.test)};
}

EpisodeResult run_sync_edge(const EpisodeOptions& opt) {
  EpisodeResult ep;
  std::unique_ptr<Recorder> recorder;
  if (opt.trace) recorder = std::make_unique<Recorder>();
  Setup setup;
  setup.recorder = recorder.get();

  const Graph graph = setup.step("topology.generate", [] {
    snap::common::Rng rng(kSyncTopologySeed);
    return snap::topology::make_random_connected(kSyncNodes, kSyncDegree, rng);
  });
  const CreditData data = setup.step("data.generate", [&] {
    return make_credit(opt.seed, 2 * kSyncNodes, 2000);
  });
  std::vector<Dataset> shards = setup.step("data.partition", [&] {
    snap::common::Rng rng = snap::common::Rng(opt.seed).fork("partition");
    return snap::data::partition_equal(data.train, kSyncNodes, rng);
  });
  const auto w = setup.step("consensus.weights", [&] {
    return snap::consensus::SparseWeightMatrix::max_degree(graph);
  });
  const std::vector<Dataset> check_shards = shards;

  const snap::ml::LinearSvm model{snap::ml::LinearSvmConfig{}};
  const SnapTrainerConfig config =
      svm_trainer_config(opt.seed, kSyncRounds, kSyncThreads);
  const TrainRun run = train_once(
      [&](const snap::ml::Model& m) {
        return std::make_unique<SnapTrainer>(graph, w, m, std::move(shards),
                                             config);
      },
      model, data.test, setup, opt.spans_path);
  ep.attempted += setup.steps + run.result.iterations.size();

  // Spectral probe: after set-up timing closed, outside every e2e metric.
  ++ep.attempted;
  std::string probe_error;
  if (!spectral_probe(w, ep, probe_error)) ++ep.failed;

  const ModelShape shape{ModelKind::kLinearSvm, 24, 0, 2, 1e-2};
  check_wire(run.result,
             WireExpectation{model.param_count(), 2 * graph.edge_count(),
                             kApeWarmup, false},
             ep.errors);
  check_model_outputs(shape, run.result, check_shards, data.test, ep.errors);
  check_mixing_matrix(plain(w), edge_list(graph), {}, "max-degree W",
                      ep.errors);

  record_e2e(ep, setup, run);
  if (opt.trace) {
    record_layers(ep, setup, run, kApeWarmup, 2 * graph.edge_count(),
                  model.param_count(), false);
    ep.layer["consensus.sparsify_s"] = 0.0;
  }
  return ep;
}

// ---------------------------------------------------------------------
// mlp-paper-48: the paper's 784-30-10 MLP on 48 nodes, §IV-B weights,
// SLEM-bounded sparsification.

constexpr std::size_t kMlpNodes = 48;
constexpr double kMlpDegree = 3.0;
constexpr std::size_t kMlpRounds = 12;
constexpr std::size_t kMlpThreads = 4;
constexpr std::size_t kMlpTrainSamples = 4'800;
constexpr std::size_t kMlpTestSamples = 1'000;
constexpr double kMlpSlemBound = 0.97;

// Like the credit data, the images and the 48-node deployment are fixed;
// the seed places samples on nodes and initializes the models.
constexpr std::uint64_t kMnistDataSeed = 0x3A15ULL;
constexpr std::uint64_t kMlpTopologySeed = 0x5EED0048ULL;

snap::data::SyntheticMnist make_mnist() {
  snap::data::SyntheticMnistConfig cfg;
  cfg.train_samples = kMlpTrainSamples;
  cfg.test_samples = kMlpTestSamples;
  cfg.label_noise = 0.08;
  cfg.seed = kMnistDataSeed;
  return snap::data::make_synthetic_mnist(cfg);
}

EpisodeResult run_mlp_paper(const EpisodeOptions& opt) {
  EpisodeResult ep;
  std::unique_ptr<Recorder> recorder;
  if (opt.trace) recorder = std::make_unique<Recorder>();
  Setup setup;
  setup.recorder = recorder.get();

  const Graph graph = setup.step("topology.generate", [] {
    snap::common::Rng rng(kMlpTopologySeed);
    return snap::topology::make_random_connected(kMlpNodes, kMlpDegree, rng);
  });
  const snap::data::SyntheticMnist data =
      setup.step("data.generate", [] { return make_mnist(); });
  std::vector<Dataset> shards = setup.step("data.partition", [&] {
    snap::common::Rng rng = snap::common::Rng(opt.seed).fork("partition");
    return snap::data::partition_equal(data.train, kMlpNodes, rng);
  });
  const snap::consensus::WeightSelection selected =
      setup.step("consensus.weights", [&] {
        return snap::consensus::select_weight_matrix(graph);
      });
  const std::vector<Dataset> check_shards = shards;

  const snap::ml::Mlp model{snap::ml::MlpConfig{}};
  SnapTrainerConfig config;
  config.alpha = kMlpAlpha;
  config.ape.initial_budget_fraction = 0.10;
  config.ape_warmup_iterations = kApeWarmup;
  config.convergence.min_iterations = kMlpRounds;
  config.convergence.max_iterations = kMlpRounds;
  config.threads = kMlpThreads;
  config.seed = opt.seed;
  config.sparsify.enabled = true;
  config.sparsify.slem_bound = kMlpSlemBound;
  config.sparsify.reweight = snap::consensus::ReprojectionMethod::kMetropolis;

  const TrainRun run = train_once(
      [&](const snap::ml::Model& m) {
        return std::make_unique<SnapTrainer>(graph, selected.w, m,
                                             std::move(shards), config);
      },
      model, data.test, setup, opt.spans_path);
  ep.attempted += setup.steps + run.result.iterations.size();

  // The sparsifier run the trainer does before round 1, repeated
  // directly: its kept links are the ones that carry frames.
  const double sparsify_start = now_s();
  const snap::consensus::SparsifierResult pruned =
      snap::consensus::sparsify_topology(graph, {}, config.sparsify);
  const double sparsify_s = now_s() - sparsify_start;
  std::string probe_error;
  if (!spectral_probe(pruned.w, ep, probe_error)) {
    ep.errors.push_back("mixing_extremes on the deployed W: " + probe_error);
  }

  const ModelShape shape{ModelKind::kMlp, 784, 30, 10, 0.0};
  const std::uint64_t kept = graph.edge_count() - pruned.links_pruned;
  check_wire(run.result,
             WireExpectation{model.param_count(), 2 * kept, 0, false},
             ep.errors);
  check_model_outputs(shape, run.result, check_shards, data.test, ep.errors);
  check_mixing_matrix(plain(selected.w), edge_list(graph), {},
                      "selected W (§IV-B)", ep.errors);
  check_mixing_matrix(plain(pruned.w), edge_list(graph), {},
                      "sparsified W", ep.errors);
  for (std::size_t r = 0; r < run.result.iterations.size(); ++r) {
    const auto& it = run.result.iterations[r];
    if (!(it.slem_after_prune <= kMlpSlemBound)) {
      ep.errors.push_back("round " + std::to_string(r + 1) +
                          ": slem_after_prune " +
                          std::to_string(it.slem_after_prune) + " > bound");
    }
    if (it.links_pruned != pruned.links_pruned) {
      ep.errors.push_back("round " + std::to_string(r + 1) + ": " +
                          std::to_string(it.links_pruned) +
                          " links pruned, the direct sparsifier run prunes " +
                          std::to_string(pruned.links_pruned));
    }
  }

  record_e2e(ep, setup, run);
  if (opt.trace) {
    record_layers(ep, setup, run, kApeWarmup, 2 * kept, model.param_count(),
                  false);
    ep.layer["consensus.sparsify_s"] = sparsify_s;
  }
  return ep;
}

// ---------------------------------------------------------------------
// gossip-churn-uds: credit SVM, gossip matching, link bursts, scheduled
// crashes and joins, two Unix-domain-socket shard processes.

constexpr std::size_t kGossipBase = 4'000;
constexpr std::size_t kGossipJoiners = 80;  // 2% latent joiners
constexpr double kGossipDegree = 4.0;
constexpr std::size_t kGossipRounds = 60;
constexpr std::size_t kGossipShards = 2;
constexpr std::size_t kGossipThreadsPerShard = 2;
constexpr std::uint64_t kGossipTopologySeed = 0x5EED04000ULL;

snap::net::FaultPlan gossip_fault_plan() {
  snap::net::FaultPlan plan;
  plan.link_enter_burst = 0.01;
  plan.link_exit_burst = 0.5;
  // Bursts shorter than this never register as partitions, so epochs
  // come from the scheduled events below, not from every round.
  plan.partition_confirm_rounds = kGossipRounds;
  for (std::size_t k = 0; k < kGossipJoiners; ++k) {
    const auto node = static_cast<snap::topology::NodeId>(kGossipBase + k);
    plan.latent_nodes.push_back(node);
    plan.scheduled_joins.push_back({node, 8 + 12 * (k % 4)});  // 8,20,32,44
  }
  // Two crash waves of 20 nodes each, all back before the end.
  for (std::size_t k = 0; k < 20; ++k) {
    plan.scheduled_crashes.push_back(
        {static_cast<snap::topology::NodeId>(97 * k + 13), 14, 26});
    plan.scheduled_crashes.push_back(
        {static_cast<snap::topology::NodeId>(89 * k + 2001), 38, 50});
  }
  plan.join_degree = 2;
  return plan;
}

// What a shard process hands back to the parent.
struct ShardReport {
  double init_s = 0.0;
  double train_s = 0.0;
  TrainResult result;
  RoundProfile profile;
  std::string error;
};

template <typename T>
void put(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}
template <typename T>
void put_vec(std::ostream& os, const std::vector<T>& v) {
  put(os, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}
template <typename T>
void get(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
}
template <typename T>
void get_vec(std::istream& is, std::vector<T>& v) {
  std::uint64_t n = 0;
  get(is, n);
  v.resize(n);
  if (n > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  }
}

void write_report(const std::string& path, const ShardReport& r) {
  std::ofstream os(path + ".tmp", std::ios::binary);
  put(os, r.init_s);
  put(os, r.train_s);
  put_vec(os, r.result.iterations);
  std::vector<double> params(r.result.final_params.begin(),
                             r.result.final_params.end());
  put_vec(os, params);
  put(os, r.result.final_train_loss);
  put(os, r.result.final_test_accuracy);
  put(os, r.result.total_bytes);
  put(os, r.result.total_cost);
  put_vec(os, r.profile.round_ms);
  put_vec(os, r.profile.round_self_ms);
  put(os, r.profile.gradient_calls);
  put(os, r.profile.gradient_busy_s);
  put(os, r.profile.loss_calls);
  put(os, r.profile.loss_busy_s);
  put(os, r.profile.predict_calls);
  put(os, r.profile.predict_busy_s);
  put_vec(os, std::vector<char>(r.error.begin(), r.error.end()));
  os.close();
  fs::rename(path + ".tmp", path);
}

std::optional<ShardReport> read_report(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  ShardReport r;
  get(is, r.init_s);
  get(is, r.train_s);
  get_vec(is, r.result.iterations);
  std::vector<double> params;
  get_vec(is, params);
  r.result.final_params = snap::linalg::Vector(params.size());
  std::copy(params.begin(), params.end(), r.result.final_params.begin());
  get(is, r.result.final_train_loss);
  get(is, r.result.final_test_accuracy);
  get(is, r.result.total_bytes);
  get(is, r.result.total_cost);
  get_vec(is, r.profile.round_ms);
  get_vec(is, r.profile.round_self_ms);
  get(is, r.profile.gradient_calls);
  get(is, r.profile.gradient_busy_s);
  get(is, r.profile.loss_calls);
  get(is, r.profile.loss_busy_s);
  get(is, r.profile.predict_calls);
  get(is, r.profile.predict_busy_s);
  std::vector<char> error;
  get_vec(is, error);
  r.error.assign(error.begin(), error.end());
  if (!is) return std::nullopt;
  return r;
}

std::map<std::string, double> read_stats(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = std::stod(line.substr(eq + 1));
  }
  return out;
}

// Waits for every child; kills the rest once the deadline passes.
bool wait_children(const std::vector<pid_t>& children, double deadline_s,
                   std::string& message) {
  std::vector<bool> done(children.size(), false);
  bool ok = true;
  for (;;) {
    bool all = true;
    for (std::size_t k = 0; k < children.size(); ++k) {
      if (done[k]) continue;
      int status = 0;
      const pid_t got = ::waitpid(children[k], &status, WNOHANG);
      if (got == children[k]) {
        done[k] = true;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          ok = false;
          message += "shard " + std::to_string(k) + " exited abnormally; ";
        }
      } else {
        all = false;
      }
    }
    if (all) return ok;
    if (now_s() > deadline_s) {
      for (std::size_t k = 0; k < children.size(); ++k) {
        if (!done[k]) ::kill(children[k], SIGKILL);
      }
      for (std::size_t k = 0; k < children.size(); ++k) {
        if (!done[k]) ::waitpid(children[k], nullptr, 0);
      }
      message += "shards killed at the deadline; ";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

EpisodeResult run_gossip_churn(const EpisodeOptions& opt) {
  EpisodeResult ep;
  std::unique_ptr<Recorder> recorder;
  if (opt.trace) recorder = std::make_unique<Recorder>();
  Setup setup;
  setup.recorder = recorder.get();
  const std::size_t n = kGossipBase + kGossipJoiners;

  const Graph graph = setup.step("topology.generate", [] {
    snap::common::Rng rng(kGossipTopologySeed);
    const Graph base = snap::topology::make_random_connected(
        kGossipBase, kGossipDegree, rng);
    // Latent joiners hold node slots but no edges until they join.
    Graph grown(kGossipBase + kGossipJoiners);
    for (const auto& [u, v] : base.edges()) grown.add_edge(u, v);
    return grown;
  });
  const CreditData data = setup.step("data.generate", [&] {
    return make_credit(opt.seed, 2 * n, 2000);
  });
  std::vector<Dataset> shards = setup.step("data.partition", [&] {
    snap::common::Rng rng = snap::common::Rng(opt.seed).fork("partition");
    return snap::data::partition_equal(data.train, n, rng);
  });
  std::vector<bool> members(n, true);
  for (std::size_t k = 0; k < kGossipJoiners; ++k) members[kGossipBase + k] = false;
  const auto w = setup.step("consensus.weights", [&] {
    return snap::consensus::SparseWeightMatrix::metropolis_on_survivors(
        graph, members);
  });

  const snap::ml::LinearSvm model{snap::ml::LinearSvmConfig{}};
  SnapTrainerConfig config =
      svm_trainer_config(opt.seed, kGossipRounds, kGossipThreadsPerShard);
  config.fabric = snap::runtime::FabricKind::kGossip;
  config.faults = gossip_fault_plan();

  // One rendezvous directory per episode process; relative, so socket
  // paths stay short whatever the checkout's location.
  const std::string rdv = opt.work_dir + "/rdv-" + std::to_string(::getpid());
  fs::remove_all(rdv);
  fs::create_directories(rdv);

  std::fflush(nullptr);
  std::vector<pid_t> children;
  for (std::size_t k = 0; k < kGossipShards; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ShardReport report;
      int code = 0;
      try {
        SnapTrainerConfig c = config;
        c.transport.kind = snap::net::TransportKind::kUds;
        c.transport.shards = kGossipShards;
        c.transport.shard_id = k;
        c.transport.rendezvous_dir = rdv;
        Setup shard_setup;
        shard_setup.recorder = recorder.get();
        const TrainRun run = train_once(
            [&](const snap::ml::Model& m) {
              return std::make_unique<SnapTrainer>(graph, w, m,
                                                   std::move(shards), c);
            },
            model, data.test, shard_setup, k == 0 ? opt.spans_path : "");
        report.init_s = run.init_s;
        report.train_s = run.train_s;
        report.result = run.result;
        report.profile = run.profile;
      } catch (const std::exception& e) {
        report.error = e.what();
        code = 3;
      }
      try {
        write_report(rdv + "/result-" + std::to_string(k), report);
      } catch (...) {
        code = 4;
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }
  std::string wait_error;
  const bool children_ok =
      wait_children(children, opt.child_deadline_s, wait_error);

  std::vector<ShardReport> reports;
  for (std::size_t k = 0; k < kGossipShards; ++k) {
    auto r = read_report(rdv + "/result-" + std::to_string(k));
    if (!r) {
      throw std::runtime_error("shard " + std::to_string(k) +
                               " left no result: " + wait_error);
    }
    if (!r->error.empty()) {
      throw std::runtime_error("shard " + std::to_string(k) + ": " + r->error);
    }
    reports.push_back(std::move(*r));
  }
  if (!children_ok) throw std::runtime_error(wait_error);
  double socket_bytes = 0.0;
  for (std::size_t k = 0; k < kGossipShards; ++k) {
    const auto stats =
        read_stats(rdv + "/shard-" + std::to_string(k) + ".stats");
    const auto it = stats.find("os_bytes_sent");
    if (it == stats.end()) {
      ep.errors.push_back("shard " + std::to_string(k) + " wrote no stats");
    } else {
      socket_bytes += it->second;
    }
  }
  fs::remove_all(rdv);

  // Shard 0 reports for the run; trainer construction in the shard
  // closes set-up.
  TrainRun run;
  run.init_s = reports[0].init_s;
  run.train_s = reports[0].train_s;
  run.result = reports[0].result;
  run.profile = reports[0].profile;
  setup.total_s += run.init_s;
  setup.step_s["core.trainer_init"] = run.init_s;
  setup.steps += kGossipShards;
  ep.attempted += setup.steps + run.result.iterations.size();

  check_same_series(reports[1].result.iterations, run.result.iterations,
                    "shard 1 against shard 0", ep.errors);
  const ModelShape shape{ModelKind::kLinearSvm, 24, 0, 2, 1e-2};
  check_wire(run.result,
             WireExpectation{model.param_count(), 0, 0, true}, ep.errors);
  const auto& last = run.result.iterations.back();
  if (last.alive_nodes != n) {
    ep.errors.push_back("only " + std::to_string(last.alive_nodes) + " of " +
                        std::to_string(n) + " nodes alive at the end");
  }
  check_model_outputs(shape, run.result, shards, data.test, ep.errors);
  check_mixing_matrix(plain(w), edge_list(graph), members,
                      "initial Metropolis W", ep.errors);

  record_e2e(ep, setup, run);
  if (opt.trace) {
    record_layers(ep, setup, run, kApeWarmup, 0, model.param_count(), true);
    ep.layer["net.socket_bytes_per_round"] =
        socket_bytes / static_cast<double>(run.result.iterations.size());
    ep.layer["consensus.sparsify_s"] = 0.0;
    ep.layer["consensus.extremes_ms"] = 0.0;
    // Replay on the in-process transport: the per-round series must be
    // identical to the socket run's.
    std::vector<Dataset> replay_shards = shards;
    SnapTrainerConfig c = config;
    c.threads = kGossipShards * kGossipThreadsPerShard;
    SnapTrainer replay(graph, w, model, std::move(replay_shards), c);
    const TrainResult sim = replay.train(data.test);
    check_same_series(sim.iterations, run.result.iterations,
                      "in-process replay against the socket run", ep.errors);
  }
  return ep;
}

}  // namespace

CentralizedReference centralized_reference(const std::string& workload,
                                           std::uint64_t seed) {
  const bool mlp = workload == "mlp-paper-48";
  Dataset train{1, 2}, test{1, 2};
  std::size_t rounds = kSyncRounds;
  if (mlp) {
    auto data = make_mnist();
    train = std::move(data.train);
    test = std::move(data.test);
    rounds = kMlpRounds;
  } else {
    const std::size_t n = workload == "sync-edge-10k"
                              ? kSyncNodes
                              : kGossipBase + kGossipJoiners;
    if (workload != "sync-edge-10k") rounds = kGossipRounds;
    auto data = make_credit(seed, 2 * n, 2000);
    train = std::move(data.train);
    test = std::move(data.test);
  }
  const snap::ml::LinearSvm svm{snap::ml::LinearSvmConfig{}};
  const snap::ml::Mlp net{snap::ml::MlpConfig{}};
  const snap::ml::Model& model =
      mlp ? static_cast<const snap::ml::Model&>(net)
          : static_cast<const snap::ml::Model&>(svm);
  snap::baselines::CentralizedConfig c;
  c.alpha = mlp ? kMlpAlpha : kSvmAlpha;
  c.convergence.min_iterations = rounds;
  c.convergence.max_iterations = rounds;
  c.seed = seed;
  const double start = now_s();
  const TrainResult result =
      snap::baselines::train_centralized(model, train, test, c);
  CentralizedReference out;
  out.rounds_per_s = static_cast<double>(rounds) / (now_s() - start);
  out.final_loss = result.final_train_loss;
  out.test_accuracy = result.final_test_accuracy;
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sync-edge-10k", &run_sync_edge},
      {"mlp-paper-48", &run_mlp_paper},
      {"gossip-churn-uds", &run_gossip_churn},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"topology.generate_s", "s"},
      {"data.generate_s", "s"},
      {"data.partition_s", "s"},
      {"consensus.weights_s", "s"},
      {"core.trainer_init_s", "s"},
      {"consensus.extremes_ms", "ms"},
      {"consensus.sparsify_s", "s"},
      {"consensus.links_pruned", "count"},
      {"consensus.slem_after_prune", "1"},
      {"core.first_round_ms", "ms"},
      {"core.round_p50_ms", "ms"},
      {"core.round_p90_ms", "ms"},
      {"core.round_self_p50_ms", "ms"},
      {"core.epoch_round_p50_ms", "ms"},
      {"core.steady_round_p50_ms", "ms"},
      {"core.traced_rounds_per_s", "1/s"},
      {"core.ape_send_ratio", "1"},
      {"core.consensus_residual_final", "1"},
      {"ml.gradient_calls", "count"},
      {"ml.gradient_cpu_s", "s"},
      {"ml.gradient_us_per_call", "us"},
      {"ml.eval_calls", "count"},
      {"ml.eval_cpu_s", "s"},
      {"ml.predict_calls", "count"},
      {"ml.predict_cpu_s", "s"},
      {"runtime.membership_epochs", "count"},
      {"runtime.links_activated_per_round", "count"},
      {"runtime.links_down_per_round", "count"},
      {"runtime.nodes_down_per_round", "count"},
      {"net.socket_bytes_per_round", "B"},
      {"net.state_sync_bytes", "B"},
      {"net.max_node_inbound_bytes_p50", "B"},
  };
  return all;
}

}  // namespace perfbench
