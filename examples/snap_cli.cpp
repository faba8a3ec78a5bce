// snap_cli — run any paper scheme on a configurable scenario from the
// command line, with optional CSV export of the per-iteration series.
//
// Examples:
//   snap_cli --scheme=snap --nodes=60 --degree=3
//   snap_cli --scheme=terngrad --nodes=40 --alpha=0.2 --csv=run.csv
//   snap_cli --workload=mnist --nodes=3 --complete --iterations=40
//   snap_cli --help
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "experiments/csv.hpp"
#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "ml/checkpoint.hpp"
#include "net/transport.hpp"
#include "runtime/fabric.hpp"
#include "topology/io.hpp"

namespace {

using namespace snap;

void print_help() {
  std::cout <<
      R"(snap_cli — run SNAP and its baselines on synthetic edge workloads

options (defaults in brackets):
  --scheme=NAME       centralized | snap | snap0 | sno | ps | terngrad [snap]
  --workload=NAME     credit (SVM) | mnist (MLP 784-30-10) [credit]
  --nodes=N           edge servers [60]
  --degree=D          average node degree of the random topology [3]
  --complete          use the complete graph instead of a random one
  --train=N           training samples (0 = generator default) [12000]
  --test=N            test samples [3000]
  --alpha=A           step size [0.3]
  --iterations=K      iteration cap [400]
  --failure=P         per-round link failure probability [0]
  --crash-rate=P      per-round probability an alive node crashes [0]
  --restart-rate=P    per-round probability a crashed node restarts [0]
  --link-burst=E[:X]  bursty (Gilbert-Elliott) link outages: links go
                      down with prob E per round and recover with prob
                      X (default 0.5; X = 1-E reproduces --failure) [off]
  --corrupt=P         per-frame corruption probability (corrupted frames
                      are charged, fail decode, and are retried) [0]
  --partition=SPEC    network partition injection. Scheduled cut:
                      START:HEAL:u-v[,u-v...] severs the listed edges
                      for rounds [START, HEAL) (HEAL 0 = never heals);
                      cutting a bridge splits the run into components
                      that train independently and merge on heal.
                      Random splits: random:P[:DURATION] starts a
                      seeded region cut with probability P per round,
                      healing after DURATION rounds [10]. [off]
  --partition-confirm=N  rounds an edge must stay down before the
                      component labeling treats it as cut (transient
                      bursts do not register as splits) [1]
  --recovery-timeout=S  async silence window before a neighbor is
                      suspected crashed (0 = auto from timing) [0]
  --no-reproject      disable the self-healing weight re-projection on
                      confirmed churn (ablation; EXTRA then anchors to
                      dead nodes' frozen parameters)
  --joiners=N         elastic membership: N latent nodes that start
                      outside the run and join mid-run [0]
  --join-rate=P       per-round probability an absent latent node
                      joins [0.02 when --joiners is set, else 0]
  --join-degree=K     attachment edges a first-time joiner adds toward
                      alive members [2]
  --leave-rate=P      per-round probability an alive member leaves
                      gracefully [0]
  --rejoin-rate=P     per-round probability a departed node rejoins [0]
  --warm-start=B      on|off: joiners warm-start from a neighbor's
                      STATE_SYNC model handoff (off = cold x0) [on]
  --seed=S            experiment seed [2020]
  --fabric=NAME       sync (shared-clock rounds) | async (event-driven
                      runtime; frames arrive when they arrive) | gossip
                      (shared clock, but each round only a sparse
                      activated link subset exchanges) [sync]
  --gossip-mode=NAME  matching (random maximal matching: at most one
                      partner per node per round) | pushpull (every
                      node picks --gossip-fanout neighbors) [matching]
  --gossip-fanout=K   neighbors each node activates per round in
                      pushpull mode [1]
  --gossip-restart=R  synchronized EXTRA restart every R rounds under
                      gossip (0 = never; stabilizes the recursion
                      against round-varying activations) [16]
  --sparsify=SPEC     cost-aware topology sparsification (SNAP-family
                      schemes, sync/gossip fabrics). slem:BOUND greedily
                      prunes links while every component's SLEM stays
                      <= BOUND; cost:BUDGET prunes (SLEM unconstrained)
                      until the kept link cost drops to BUDGET x the
                      initial cost. Pruned links carry no frames; the
                      sparsifier re-runs at membership/partition
                      epochs and never disconnects a component. [off]
  --link-cost=NAME    link price model for --sparsify: hops (detour
                      distance, the paper's hop-weighted cost analogue)
                      | uniform (every link costs 1) [hops]
  --compute=S         per-round compute time in seconds (async) [0.001]
  --hetero=H          linear compute spread: the slowest node takes
                      (1+H)x the base compute time (async) [0]
  --jitter=J          lognormal-ish compute jitter fraction, 0<=J<1
                      (async) [0]
  --latency=S         per-hop link latency in seconds (async) [0.001]
  --bandwidth=B       NIC bandwidth in bytes/s (async) [1.25e8]
  --max-staleness=K   bounded-staleness gate: a node may run at most K
                      rounds ahead of its slowest neighbor; 0 = off
                      (async) [0]
  --free-run          async decentralized schemes: drop the
                      neighborhood pacing gate and let nodes free-run
                      (EXTRA can diverge under persistent view skew)
  --transport=NAME    sim (in-process deterministic oracle) | uds
                      (multi-process over Unix-domain sockets) | tcp
                      (multi-process over TCP loopback) [sim]
                      Socket transports require a SNAP-family scheme
                      and a sync or gossip fabric; the learning
                      trajectory is bitwise identical to sim for the
                      same seed.
  --shards=K          shard processes for a socket transport: the node
                      set splits into K contiguous blocks, one process
                      each, and snap_cli forks the other K-1 [1]
  --rendezvous=DIR    directory for the shard rendezvous artifacts
                      (sockets/ports, per-shard logs and wire stats)
                      [a fresh /tmp directory, removed on exit]
  --checkpoint-every=N  socket transports: write a round-aligned run
                      checkpoint (shard-<id>.ckpt in the rendezvous
                      dir) every N rounds; a respawned shard resumes
                      from it instead of replaying from round 0 [0]
  --chaos-kill=RATE   chaos harness: the launcher SIGKILLs a random
                      worker shard at RATE mean kills per second and
                      respawns it with --resume; the learning
                      trajectory stays bitwise identical to the
                      fault-free run [0]
  --csv=FILE          write the per-iteration series as CSV
  --topology=FILE     load the peer topology from an edge-list file
                      (see topology/io.hpp for the format)
  --save-model=FILE   write the trained parameters as a checkpoint
  --help              this text

internal (set by the launcher, not by hand):
  --shard-worker=I    run as shard I of a socket-transport run
  --resume            shard worker: reconnect to parked survivors and
                      resume from the latest run checkpoint (if any)
  --resume-incarnation=N  monotone respawn counter; survivors reject
                      reconnect handshakes that do not supersede the
                      last accepted incarnation
)";
}

std::optional<std::map<std::string, std::string>> parse_args(
    int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!common::starts_with(arg, "--")) {
      std::cerr << "unrecognized argument: " << arg << "\n";
      return std::nullopt;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      args.emplace(std::string(arg), "1");  // boolean flag
    } else {
      args.emplace(std::string(arg.substr(0, eq)),
                   std::string(arg.substr(eq + 1)));
    }
  }
  return args;
}

/// Parses --partition=START:HEAL:u-v[,u-v...] (scheduled edge cut) or
/// random:P[:DURATION] (seeded random region cuts) into the fault
/// plan. Returns false on a malformed spec.
bool parse_partition_spec(const std::string& spec, net::FaultPlan& plan) {
  try {
    if (common::starts_with(spec, "random:")) {
      const std::string rest = spec.substr(7);
      const auto colon = rest.find(':');
      plan.partition_probability = std::stod(rest.substr(0, colon));
      if (colon != std::string::npos) {
        plan.partition_duration = std::stoul(rest.substr(colon + 1));
      }
      return plan.partition_probability > 0.0 &&
             plan.partition_duration >= 1;
    }
    const auto c1 = spec.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    if (c2 == std::string::npos) return false;
    net::PartitionEvent event;
    event.start_round = std::stoul(spec.substr(0, c1));
    event.heal_round = std::stoul(spec.substr(c1 + 1, c2 - c1 - 1));
    const std::string edges = spec.substr(c2 + 1);
    std::size_t pos = 0;
    while (pos <= edges.size()) {
      const auto comma = edges.find(',', pos);
      const std::string edge =
          edges.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
      const auto dash = edge.find('-');
      if (dash == std::string::npos || dash == 0) return false;
      event.edges.emplace_back(
          static_cast<topology::NodeId>(std::stoul(edge.substr(0, dash))),
          static_cast<topology::NodeId>(std::stoul(edge.substr(dash + 1))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (event.edges.empty()) return false;
    plan.scheduled_partitions.push_back(std::move(event));
    return true;
  } catch (...) {
    return false;
  }
}

std::optional<experiments::Scheme> parse_scheme(const std::string& name) {
  if (name == "centralized") return experiments::Scheme::kCentralized;
  if (name == "snap") return experiments::Scheme::kSnap;
  if (name == "snap0") return experiments::Scheme::kSnap0;
  if (name == "sno") return experiments::Scheme::kSno;
  if (name == "ps") return experiments::Scheme::kPs;
  if (name == "terngrad") return experiments::Scheme::kTernGrad;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed.has_value()) return 2;
  const auto& args = *parsed;
  auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };
  if (args.contains("help")) {
    print_help();
    return 0;
  }
  for (const auto& [key, value] : args) {
    static const std::set<std::string> known{
        "scheme", "workload", "nodes", "degree", "complete", "train",
        "test", "alpha", "iterations", "failure", "seed", "csv",
        "topology", "save-model", "help", "fabric", "compute", "hetero",
        "jitter", "latency", "bandwidth", "max-staleness", "free-run",
        "crash-rate", "restart-rate", "link-burst", "corrupt",
        "partition", "partition-confirm",
        "recovery-timeout", "no-reproject", "joiners", "join-rate",
        "join-degree", "leave-rate", "rejoin-rate", "warm-start",
        "gossip-mode", "gossip-fanout", "gossip-restart", "sparsify",
        "link-cost", "transport",
        "shards", "shard-worker", "rendezvous", "checkpoint-every",
        "chaos-kill", "resume", "resume-incarnation"};
    if (!known.contains(key)) {
      std::cerr << "unknown option --" << key << " (try --help)\n";
      return 2;
    }
  }

  const auto scheme = parse_scheme(get("scheme", "snap"));
  if (!scheme.has_value()) {
    std::cerr << "unknown scheme (try --help)\n";
    return 2;
  }

  experiments::ScenarioConfig cfg;
  cfg.workload = get("workload", "credit") == "mnist"
                     ? experiments::Workload::kMnistMlp
                     : experiments::Workload::kCreditSvm;
  cfg.nodes = std::stoul(get("nodes", "60"));
  cfg.average_degree = std::stod(get("degree", "3"));
  cfg.complete_topology = args.contains("complete");
  cfg.train_samples = std::stoul(get("train", "12000"));
  cfg.test_samples = std::stoul(get("test", "3000"));
  cfg.alpha = std::stod(get("alpha", "0.3"));
  cfg.convergence.max_iterations = std::stoul(get("iterations", "400"));
  cfg.convergence.loss_tolerance = 1e-3;
  cfg.convergence.consensus_tolerance = 1e-2;
  cfg.link_failure_probability = std::stod(get("failure", "0"));
  cfg.faults.crash_probability = std::stod(get("crash-rate", "0"));
  cfg.faults.restart_probability = std::stod(get("restart-rate", "0"));
  if (args.contains("link-burst")) {
    const std::string burst = get("link-burst", "0");
    const auto colon = burst.find(':');
    cfg.faults.link_enter_burst =
        std::stod(burst.substr(0, colon));
    cfg.faults.link_exit_burst =
        colon == std::string::npos ? 0.5 : std::stod(burst.substr(colon + 1));
  }
  cfg.faults.frame_corruption_probability = std::stod(get("corrupt", "0"));
  if (args.contains("partition") &&
      !parse_partition_spec(get("partition", ""), cfg.faults)) {
    std::cerr << "bad --partition spec (try --help)\n";
    return 2;
  }
  cfg.faults.partition_confirm_rounds =
      std::stoul(get("partition-confirm", "1"));
  cfg.fault_recovery.suspect_after_s =
      std::stod(get("recovery-timeout", "0"));
  cfg.reproject_on_churn = !args.contains("no-reproject");
  cfg.latent_joiners = std::stoul(get("joiners", "0"));
  cfg.faults.join_probability =
      std::stod(get("join-rate", cfg.latent_joiners > 0 ? "0.02" : "0"));
  cfg.faults.join_degree = std::stoul(get("join-degree", "2"));
  cfg.faults.leave_probability = std::stod(get("leave-rate", "0"));
  cfg.faults.rejoin_probability = std::stod(get("rejoin-rate", "0"));
  const std::string warm = get("warm-start", "on");
  if (warm != "on" && warm != "off") {
    std::cerr << "--warm-start takes on or off (try --help)\n";
    return 2;
  }
  cfg.warm_start_joins = warm == "on";
  cfg.seed = std::stoull(get("seed", "2020"));
  if (args.contains("topology")) {
    std::string error;
    auto loaded = topology::load_edge_list(get("topology", ""), &error);
    if (!loaded.has_value()) {
      std::cerr << "bad topology file: " << error << "\n";
      return 1;
    }
    if (!loaded->is_connected()) {
      std::cerr << "topology must be connected\n";
      return 1;
    }
    cfg.custom_topology = std::move(*loaded);
    cfg.nodes = cfg.custom_topology->node_count();
  }

  const auto fabric = runtime::parse_fabric_kind(get("fabric", "sync"));
  if (!fabric.has_value()) {
    std::cerr << "unknown fabric (sync, async, or gossip; try --help)\n";
    return 2;
  }
  cfg.fabric = *fabric;
  const auto gossip_mode =
      runtime::parse_gossip_mode(get("gossip-mode", "matching"));
  if (!gossip_mode.has_value()) {
    std::cerr << "unknown gossip mode (matching or pushpull; try --help)\n";
    return 2;
  }
  cfg.gossip.mode = *gossip_mode;
  cfg.gossip.fanout = std::stoul(get("gossip-fanout", "1"));
  cfg.gossip.restart_every = std::stoul(get("gossip-restart", "16"));
  const double base_compute = std::stod(get("compute", "0.001"));
  const double hetero = std::stod(get("hetero", "0"));
  cfg.async_timing.compute_s = base_compute;
  if (hetero > 0.0) {
    // Latent joiners occupy node slots from round 1, so the per-node
    // timing vector must cover them too.
    cfg.async_timing.node_compute_s = runtime::linear_compute_spread(
        cfg.nodes + cfg.latent_joiners, base_compute, hetero);
  }
  cfg.async_timing.compute_jitter = std::stod(get("jitter", "0"));
  cfg.async_timing.link_latency_s = std::stod(get("latency", "0.001"));
  cfg.async_timing.nic_bandwidth_bytes_per_s =
      std::stod(get("bandwidth", "1.25e8"));
  cfg.async_timing.max_staleness_rounds =
      std::stoul(get("max-staleness", "0"));
  cfg.async_free_run = args.contains("free-run");
  cfg.async_timing.seed = cfg.seed;

  if (args.contains("sparsify")) {
    const std::string spec = get("sparsify", "");
    try {
      if (common::starts_with(spec, "slem:")) {
        cfg.sparsify.enabled = true;
        cfg.sparsify.slem_bound = std::stod(spec.substr(5));
      } else if (common::starts_with(spec, "cost:")) {
        cfg.sparsify.enabled = true;
        cfg.sparsify.cost_budget = std::stod(spec.substr(5));
      } else {
        std::cerr << "bad --sparsify spec (slem:BOUND or cost:BUDGET; "
                     "try --help)\n";
        return 2;
      }
    } catch (...) {
      std::cerr << "bad --sparsify spec (slem:BOUND or cost:BUDGET; "
                   "try --help)\n";
      return 2;
    }
  }
  const std::string link_cost = get("link-cost", "hops");
  if (link_cost == "hops") {
    cfg.sparsify.cost_model = consensus::LinkCostModel::kHops;
  } else if (link_cost == "uniform") {
    cfg.sparsify.cost_model = consensus::LinkCostModel::kUniform;
  } else {
    std::cerr << "--link-cost takes hops or uniform (try --help)\n";
    return 2;
  }
  if (cfg.sparsify.enabled) {
    if (*scheme != experiments::Scheme::kSnap &&
        *scheme != experiments::Scheme::kSnap0 &&
        *scheme != experiments::Scheme::kSno) {
      std::cerr << "--sparsify supports only the SNAP-family schemes "
                   "(snap, snap0, sno)\n";
      return 2;
    }
    if (cfg.fabric == runtime::FabricKind::kAsync) {
      std::cerr << "--sparsify requires --fabric=sync or gossip\n";
      return 2;
    }
  }

  const auto transport_kind =
      net::parse_transport_kind(get("transport", "sim"));
  if (!transport_kind.has_value()) {
    std::cerr << "unknown transport (sim, uds, or tcp; try --help)\n";
    return 2;
  }
  cfg.transport.kind = *transport_kind;
  cfg.transport.shards = std::stoul(get("shards", "1"));
  const bool worker = args.contains("shard-worker");
  cfg.transport.shard_id = worker ? std::stoul(get("shard-worker", "0")) : 0;
  cfg.transport.rendezvous_dir = get("rendezvous", "");
  const bool resume = args.contains("resume");
  cfg.transport.resume = resume;
  cfg.transport.incarnation = std::stoull(get("resume-incarnation", "0"));
  const std::size_t checkpoint_every =
      std::stoul(get("checkpoint-every", "0"));
  const double chaos_kill = std::stod(get("chaos-kill", "0"));
  const bool socket_run = cfg.transport.kind != net::TransportKind::kSim;
  if (!socket_run && (cfg.transport.shards > 1 || worker)) {
    std::cerr << "--shards/--shard-worker require --transport=uds or tcp\n";
    return 2;
  }
  if (socket_run) {
    if (*scheme != experiments::Scheme::kSnap &&
        *scheme != experiments::Scheme::kSnap0 &&
        *scheme != experiments::Scheme::kSno) {
      std::cerr << "socket transports support only the SNAP-family "
                   "schemes (snap, snap0, sno)\n";
      return 2;
    }
    if (cfg.fabric == runtime::FabricKind::kAsync) {
      std::cerr << "socket transports require --fabric=sync or gossip\n";
      return 2;
    }
    if (cfg.transport.shards == 0 ||
        cfg.transport.shards > cfg.nodes + cfg.latent_joiners) {
      std::cerr << "--shards must be between 1 and the node count\n";
      return 2;
    }
    if (worker && cfg.transport.rendezvous_dir.empty()) {
      std::cerr << "--shard-worker requires --rendezvous\n";
      return 2;
    }
  }
  if (resume && !worker) {
    std::cerr << "--resume is a shard-worker flag (the supervisor sets "
                 "it on respawn)\n";
    return 2;
  }
  if (checkpoint_every > 0 && !socket_run) {
    std::cerr << "--checkpoint-every requires --transport=uds or tcp\n";
    return 2;
  }
  // Workers inherit the launcher's argv; the flag only acts there.
  if (chaos_kill > 0.0 && !worker &&
      (!socket_run || cfg.transport.shards < 2)) {
    std::cerr << "--chaos-kill requires a socket-transport launcher with "
                 "at least 2 shards\n";
    return 2;
  }

  // Launcher: shard 0 runs in this process; the other shards are forked
  // copies of this binary in --shard-worker mode, with their output
  // captured as shard-<i>.log next to the rendezvous artifacts. The
  // launcher is also the supervisor: it waitpid-watches the workers and
  // respawns any that die by signal with --resume and a superseding
  // incarnation, so a SIGKILL-ed shard rejoins the parked survivors.
  bool created_rendezvous = false;
  struct WorkerSlot {
    std::size_t shard = 0;
    pid_t pid = -1;
    std::uint64_t incarnation = 0;
    bool done = false;    ///< exited 0
    bool failed = false;  ///< nonzero exit or respawn budget exhausted
  };
  std::mutex slots_mutex;
  std::vector<WorkerSlot> slots;
  std::thread supervisor_thread;
  std::thread chaos_thread;
  std::atomic<bool> chaos_stop{false};
  const bool launcher = socket_run && !worker && cfg.transport.shards > 1;
  if (launcher) {
    if (cfg.transport.rendezvous_dir.empty()) {
      std::string tmpl = "/tmp/snap-rdv-XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr) {
        std::cerr << "cannot create a rendezvous directory under /tmp\n";
        return 1;
      }
      cfg.transport.rendezvous_dir = tmpl;
      created_rendezvous = true;
    } else {
      // An explicit --rendezvous gets mkdir -p semantics: the callers
      // (CI, scripts) should not have to pre-create scratch dirs.
      std::error_code ec;
      std::filesystem::create_directories(cfg.transport.rendezvous_dir, ec);
      if (ec) {
        std::cerr << "cannot create rendezvous directory "
                  << cfg.transport.rendezvous_dir << ": " << ec.message()
                  << "\n";
        return 1;
      }
    }
  }
  // The per-shard checkpoint path needs the final rendezvous dir.
  if (checkpoint_every > 0) {
    cfg.checkpoint.every = checkpoint_every;
    cfg.checkpoint.path = cfg.transport.rendezvous_dir + "/shard-" +
                          std::to_string(cfg.transport.shard_id) + ".ckpt";
    cfg.checkpoint.resume = resume;
  }
  auto spawn_shard = [&](std::size_t s, std::uint64_t incarnation) -> pid_t {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
    const std::string log = cfg.transport.rendezvous_dir + "/shard-" +
                            std::to_string(s) + ".log";
    const int fd = ::open(
        log.c_str(),
        O_CREAT | O_WRONLY | (incarnation == 0 ? O_TRUNC : O_APPEND), 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<std::string> child_args(argv, argv + argc);
    child_args.push_back("--shard-worker=" + std::to_string(s));
    if (!args.contains("rendezvous")) {
      child_args.push_back("--rendezvous=" + cfg.transport.rendezvous_dir);
    }
    if (incarnation > 0) {
      child_args.push_back("--resume");
      child_args.push_back("--resume-incarnation=" +
                           std::to_string(incarnation));
    }
    std::vector<char*> child_argv;
    child_argv.reserve(child_args.size() + 1);
    for (std::string& a : child_args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    ::execv("/proc/self/exe", child_argv.data());
    _exit(127);  // exec failed; never run the parent's cleanup paths
  };
  if (launcher) {
    for (std::size_t s = 1; s < cfg.transport.shards; ++s) {
      const pid_t pid = spawn_shard(s, 0);
      if (pid < 0) {
        std::cerr << "fork failed for shard " << s << "\n";
        return 1;
      }
      slots.push_back({s, pid, 0, false, false});
    }
    supervisor_thread = std::thread([&] {
      // A worker that dies by signal (chaos SIGKILL, assertion abort)
      // is respawned with the next incarnation. External SIGKILLs are
      // the chaos harness doing its job, so their budget is generous;
      // any other signal (SIGABRT from a failed contract, SIGSEGV) is
      // likely deterministic and gets a tight budget so it cannot
      // respawn forever. Nonzero exits (config errors) fail
      // immediately, as before.
      constexpr std::uint64_t kMaxChaosRespawns = 1000;
      constexpr std::uint64_t kMaxCrashRespawns = 20;
      while (true) {
        bool all_settled = true;
        {
          const std::lock_guard<std::mutex> lock(slots_mutex);
          for (WorkerSlot& slot : slots) {
            if (slot.done || slot.failed) continue;
            all_settled = false;
            int status = 0;
            const pid_t ret = ::waitpid(slot.pid, &status, WNOHANG);
            if (ret != slot.pid) continue;
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
              slot.done = true;
            } else if (WIFSIGNALED(status) &&
                       slot.incarnation < (WTERMSIG(status) == SIGKILL
                                               ? kMaxChaosRespawns
                                               : kMaxCrashRespawns)) {
              ++slot.incarnation;
              slot.pid = spawn_shard(slot.shard, slot.incarnation);
              if (slot.pid < 0) slot.failed = true;
            } else {
              slot.failed = true;
            }
          }
        }
        if (all_settled) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    if (chaos_kill > 0.0) {
      chaos_thread = std::thread([&] {
        // Poissonish kill schedule: each 5 ms tick SIGKILLs one
        // random live worker with probability chaos_kill * 0.005,
        // until the launcher's own replica finishes the run.
        std::mt19937_64 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        while (!chaos_stop.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          if (unit(rng) >= chaos_kill * 0.005) continue;
          const std::lock_guard<std::mutex> lock(slots_mutex);
          std::vector<pid_t> alive;
          for (const WorkerSlot& slot : slots) {
            if (!slot.done && !slot.failed && slot.pid > 0) {
              alive.push_back(slot.pid);
            }
          }
          if (alive.empty()) continue;
          const std::size_t pick = std::uniform_int_distribution<
              std::size_t>(0, alive.size() - 1)(rng);
          ::kill(alive[pick], SIGKILL);
        }
      });
    }
  }

  std::cout << "building scenario: "
            << (cfg.workload == experiments::Workload::kMnistMlp
                    ? "mnist-mlp"
                    : "credit-svm")
            << ", " << cfg.nodes << " nodes, seed " << cfg.seed << "\n";
  // A failed contract (say, a spectral routine that cannot meet its
  // tolerance while W is selected) ends the run with the message and
  // exit status 1 instead of terminate(). Worker shards replay the same
  // deterministic run; any still running are stopped so the supervisor
  // settles before main returns.
  std::optional<experiments::Scenario> scenario;
  core::TrainResult result;
  try {
    scenario.emplace(cfg);
    result = scenario->run(*scheme);
  } catch (const std::exception& error) {
    std::cerr << "snap_cli: " << error.what() << "\n";
    chaos_stop.store(true);
    if (chaos_thread.joinable()) chaos_thread.join();
    {
      const std::lock_guard<std::mutex> lock(slots_mutex);
      for (WorkerSlot& slot : slots) {
        if (slot.done || slot.failed) continue;
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, nullptr, 0);
        slot.failed = true;
      }
    }
    if (supervisor_thread.joinable()) supervisor_thread.join();
    return 1;
  }

  experiments::Table table({"metric", "value"});
  table.add_row({"scheme", std::string(experiments::scheme_name(*scheme))});
  table.add_row({"fabric", std::string(runtime::fabric_name(cfg.fabric))});
  table.add_row({"converged", result.converged ? "yes" : "no"});
  table.add_row({"iterations", std::to_string(result.converged_after)});
  table.add_row(
      {"final accuracy",
       common::format_percent(result.final_test_accuracy, 2)});
  table.add_row(
      {"final train loss",
       common::format_double(result.final_train_loss, 5)});
  table.add_row(
      {"wire bytes", common::format_bytes(double(result.total_bytes))});
  table.add_row({"hop-weighted cost",
                 common::format_bytes(double(result.total_cost))});
  table.add_row(
      {"simulated time",
       common::format_double(result.total_sim_seconds, 3) + " s"});
  if (socket_run) {
    table.add_row({"transport",
                   std::string(net::transport_name(cfg.transport.kind))});
    table.add_row({"shards", std::to_string(cfg.transport.shards)});
    // The trainer's SocketHub published this shard's wire counters as
    // shard-<id>.stats: real bytes on the wire next to the charged
    // frame bytes (the per-frame parity the oracle contract promises).
    std::ifstream stats(cfg.transport.rendezvous_dir + "/shard-" +
                        std::to_string(cfg.transport.shard_id) + ".stats");
    for (std::string line; std::getline(stats, line);) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = line.substr(0, eq);
      const std::string value = line.substr(eq + 1);
      if (key == "frames_sent") {
        table.add_row({"wire frames sent", value});
      } else if (key == "payload_bytes_sent") {
        table.add_row({"wire frame bytes", value});
      } else if (key == "charged_bytes_sent") {
        table.add_row({"charged frame bytes", value});
      } else if (key == "mismatched_frames") {
        table.add_row({"byte-parity mismatches", value});
      } else if (key == "os_bytes_sent") {
        table.add_row({"os bytes sent", value});
      } else if (key == "os_bytes_received") {
        table.add_row({"os bytes received", value});
      }
    }
  }
  if (cfg.fabric == runtime::FabricKind::kGossip) {
    std::uint64_t activated = 0;
    for (const auto& it : result.iterations) activated += it.links_activated;
    table.add_row({"gossip mode",
                   std::string(runtime::gossip_mode_name(cfg.gossip.mode))});
    table.add_row({"links activated", std::to_string(activated)});
  }
  if (cfg.sparsify.enabled && !result.iterations.empty()) {
    const auto& last = result.iterations.back();
    table.add_row({"links pruned", std::to_string(last.links_pruned)});
    table.add_row({"effective edges",
                   std::to_string(last.effective_edges)});
    table.add_row({"slem after prune",
                   common::format_double(last.slem_after_prune, 4)});
  }
  if (cfg.faults.any() || cfg.latent_joiners > 0 ||
      cfg.link_failure_probability > 0.0) {
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t retried = 0;
    std::uint64_t joined = 0;
    std::uint64_t sync_bytes = 0;
    for (const auto& it : result.iterations) {
      dropped += it.frames_dropped;
      corrupted += it.frames_corrupted;
      retried += it.frames_retried;
      joined += it.nodes_joined;
      sync_bytes += it.state_sync_bytes;
    }
    table.add_row({"frames dropped", std::to_string(dropped)});
    table.add_row({"frames corrupted", std::to_string(corrupted)});
    table.add_row({"frames retried", std::to_string(retried)});
    if (cfg.faults.has_partitions()) {
      std::uint64_t max_components = 1;
      std::uint64_t final_epoch = 0;
      for (const auto& it : result.iterations) {
        if (it.components > max_components) max_components = it.components;
        final_epoch = it.partition_epoch;
      }
      table.add_row({"max components", std::to_string(max_components)});
      table.add_row({"partition epoch", std::to_string(final_epoch)});
    }
    if (cfg.latent_joiners > 0 || cfg.faults.has_membership()) {
      table.add_row({"nodes joined", std::to_string(joined)});
      table.add_row({"state-sync bytes",
                     common::format_bytes(double(sync_bytes))});
      table.add_row({"final membership",
                     std::to_string(result.iterations.empty()
                                        ? 0
                                        : result.iterations.back()
                                              .alive_nodes)});
    }
  }
  table.print(std::cout);

  // Artifacts are shard 0's job: worker shards compute the identical
  // replica but must not race the launcher for the output files.
  if (!worker && args.contains("save-model")) {
    const std::string path = get("save-model", "");
    const ml::Checkpoint checkpoint{scenario->model().name(),
                                    result.final_params};
    if (!ml::save_checkpoint(path, checkpoint)) {
      std::cerr << "cannot write checkpoint to " << path << "\n";
      return 1;
    }
    std::cout << "model checkpoint written to " << path << "\n";
  }

  if (!worker && args.contains("csv")) {
    const std::string path = get("csv", "");
    std::ofstream file(path);
    if (!file) {
      std::cerr << "cannot open " << path << " for writing\n";
      return 1;
    }
    experiments::write_train_result_csv(file, result);
    std::cout << "per-iteration series written to " << path << "\n";
  }

  // Wind down the supervision tree: stop injecting chaos, let the
  // supervisor reap (and, if needed, respawn) workers until every one
  // settles. A failed shard leaves the rendezvous artifacts (logs,
  // stats) in place for inspection.
  chaos_stop.store(true);
  if (chaos_thread.joinable()) chaos_thread.join();
  if (supervisor_thread.joinable()) supervisor_thread.join();
  bool shards_ok = true;
  std::uint64_t respawns = 0;
  for (const WorkerSlot& slot : slots) {
    respawns += slot.incarnation;
    if (!slot.done) {
      std::cerr << "shard " << slot.shard
                << " failed (see shard logs in "
                << cfg.transport.rendezvous_dir << ")\n";
      shards_ok = false;
    }
  }
  if (launcher && (chaos_kill > 0.0 || respawns > 0)) {
    std::cout << "supervisor: " << respawns
              << " worker respawn(s) injected/recovered\n";
  }
  if (!shards_ok) return 1;
  if (launcher) {
    // Graceful exit: every shard unlinked its socket/port file on
    // close; sweep the remaining per-shard logs and stats, and the
    // directory itself when this run created it.
    std::error_code ec;
    namespace fs = std::filesystem;
    for (const auto& entry :
         fs::directory_iterator(cfg.transport.rendezvous_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) == 0) fs::remove(entry.path(), ec);
    }
    if (created_rendezvous) fs::remove(cfg.transport.rendezvous_dir, ec);
  }
  return 0;
}
