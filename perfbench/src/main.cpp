// SNAP benchmark runner.
//
//   snapbench --workload NAME --seed N --seconds T --trace 0|1
//             [--work-dir DIR]
//   snapbench --selftest
//   snapbench --workload NAME --seed N --seconds T --trace 0 --centralized 1
//
// Repeats episodes of the workload (set up from the seed, train a fixed
// number of rounds, check the outputs) until T seconds are used, then
// prints one JSON line: correct, attempted, failed, and the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Set-up times
// and model outputs are medians over the episodes, rounds_per_s is the
// fastest episode's. --centralized prints the single-worker reference
// for the workload's data instead.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
int run_selftest();
}

namespace {

using perfbench::EpisodeOptions;
using perfbench::EpisodeResult;
using perfbench::median;
using perfbench::now_s;

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Episode results cross the process boundary as text lines:
//   attempted N | failed N | e2e NAME V | layer NAME V |
//   pooled NAME V... | error TEXT
void write_episode(const std::string& path, const EpisodeResult& ep) {
  std::ofstream os(path);
  os.precision(17);
  os << "attempted " << ep.attempted << "\nfailed " << ep.failed << '\n';
  for (const auto& [k, v] : ep.e2e) os << "e2e " << k << ' ' << v << '\n';
  for (const auto& [k, v] : ep.layer) os << "layer " << k << ' ' << v << '\n';
  for (const auto& [k, values] : ep.pooled) {
    os << "pooled " << k;
    for (const double v : values) os << ' ' << v;
    os << '\n';
  }
  for (const auto& error : ep.errors) os << "error " << error << '\n';
}

EpisodeResult read_episode(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("episode left no result");
  EpisodeResult ep;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream in(line);
    std::string kind, name;
    in >> kind;
    if (kind == "attempted") {
      in >> ep.attempted;
    } else if (kind == "failed") {
      in >> ep.failed;
    } else if (kind == "e2e" || kind == "layer") {
      double v = 0.0;
      in >> name >> v;
      (kind == "e2e" ? ep.e2e : ep.layer)[name] = v;
    } else if (kind == "pooled") {
      in >> name;
      auto& values = ep.pooled[name];
      for (double v; in >> v;) values.push_back(v);
    } else if (kind == "error") {
      ep.errors.push_back(line.substr(6));
    }
  }
  return ep;
}

// Runs one episode in a child process. A fresh process per episode gives
// every episode the same cold heap, so peak RSS (the child's, which
// includes its own shard processes) compares between episodes and runs.
EpisodeResult run_isolated(const perfbench::Workload& workload,
                           const EpisodeOptions& opt, double deadline_s) {
  const std::string path =
      opt.work_dir + "/episode-" + std::to_string(::getpid()) + ".txt";
  std::filesystem::remove(path);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      write_episode(path, workload.run(opt));
    } catch (const std::exception& e) {
      std::cerr << "snapbench: " << workload.name << ": " << e.what() << '\n';
      code = 3;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, WNOHANG, &usage) == 0) {
    if (now_s() > deadline_s) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, &usage);
      throw std::runtime_error("episode killed at the run deadline");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("episode process failed");
  }
  EpisodeResult ep = read_episode(path);
  std::filesystem::remove(path);
  ep.e2e["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return ep;
}

int usage() {
  std::cerr << "usage: snapbench --workload NAME --seed N --seconds T "
               "--trace 0|1 [--work-dir DIR]\n"
               "       snapbench --selftest\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double started = now_s();
  std::map<std::string, std::string> args;
  for (int a = 1; a < argc; ++a) {
    const std::string key = argv[a];
    if (key == "--selftest") return perfbench::run_selftest();
    if (key.rfind("--", 0) != 0 || a + 1 >= argc) return usage();
    args[key.substr(2)] = argv[++a];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!args.contains(required)) return usage();
  }
  const perfbench::Workload* workload = nullptr;
  for (const auto& w : perfbench::workloads()) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return usage();
  if (args.contains("centralized")) {
    const auto ref = perfbench::centralized_reference(
        workload->name, std::stoull(args["seed"]));
    std::printf("centralized %s seed %s: %.4f rounds/s, final_loss %.6f, "
                "test_accuracy %.4f\n",
                workload->name, args["seed"].c_str(), ref.rounds_per_s,
                ref.final_loss, ref.test_accuracy);
    return 0;
  }

  EpisodeOptions opt;
  opt.seed = std::stoull(args["seed"]);
  opt.trace = args["trace"] == "1";
  const double seconds = std::stod(args["seconds"]);
  opt.work_dir = args.contains("work-dir") ? args["work-dir"] : ".bench_run";
  // A run must end within 180 s; shard processes are killed before that.
  opt.child_deadline_s = started + 165.0;
  std::filesystem::create_directories(opt.work_dir);

  std::vector<EpisodeResult> episodes;
  std::vector<double> durations;
  try {
    for (;;) {
      const double t0 = now_s();
      opt.spans_path = opt.trace && episodes.empty()
                           ? opt.work_dir + "/spans-" + workload->name + ".csv"
                           : "";
      episodes.push_back(run_isolated(*workload, opt, started + 170.0));
      durations.push_back(now_s() - t0);
      const auto& e = episodes.back().e2e;
      std::fprintf(stderr, "episode %zu: setup_s %.4f rounds_per_s %.3f\n",
                   episodes.size(), e.at("setup_s"), e.at("rounds_per_s"));
      const double elapsed = now_s() - started;
      // Start another episode only when it can finish within the budget.
      if (elapsed + median(durations) > seconds) break;
    }
  } catch (const std::exception& e) {
    std::cerr << "snapbench: " << workload->name << ": " << e.what() << '\n';
    return 1;
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::vector<double>> e2e, layer, pooled;
  for (const auto& ep : episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
    for (const auto& error : ep.errors) {
      correct = false;
      std::cerr << "check failed: " << error << '\n';
    }
    for (const auto& [k, v] : ep.e2e) e2e[k].push_back(v);
    for (const auto& [k, v] : ep.layer) layer[k].push_back(v);
    for (const auto& [k, v] : ep.pooled) {
      pooled[k].insert(pooled[k].end(), v.begin(), v.end());
    }
  }

  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(e2e["setup_s"]), "s"},
        // Interference on a shared machine only slows an episode, so the
        // fastest episode is the steadiest estimate of the code's rate.
        {"rounds_per_s", max_of(e2e["rounds_per_s"]), "1/s"},
        {"bytes_per_round", median(e2e["bytes_per_round"]), "B"},
        {"final_loss", median(e2e["final_loss"]), "1"},
        {"test_accuracy", median(e2e["test_accuracy"]), "1"},
        {"peak_rss_mb", median(e2e["peak_rss_mb"]), "MiB"},
    };
  } else {
    const auto& rounds = pooled["round_ms"];
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      double value = 0.0;
      if (name == "core.round_p50_ms") {
        value = median(rounds);
      } else if (name == "core.round_p90_ms") {
        // A tail percentile needs enough samples beyond it.
        value = rounds.size() >= 100 ? percentile(rounds, 0.9) : 0.0;
      } else if (name == "core.round_self_p50_ms") {
        value = median(pooled["round_self_ms"]);
      } else if (name == "core.epoch_round_p50_ms") {
        value = median(pooled["epoch_round_ms"]);
      } else if (name == "core.steady_round_p50_ms") {
        value = median(pooled["steady_round_ms"]);
      } else if (name == "core.traced_rounds_per_s") {
        value = max_of(layer[name]);
      } else {
        value = median(layer[name]);
      }
      metrics.emplace_back(name, value, unit);
    }
  }

  std::fprintf(stderr, "snapbench: %s seed %llu: %zu episodes in %.1f s\n",
               workload->name, static_cast<unsigned long long>(opt.seed),
               episodes.size(), now_s() - started);
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buffer[128];
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const auto& [name, value, unit] = metrics[k];
    if (!std::isfinite(value)) {
      std::cerr << "metric " << name << " is not finite\n";
      return 1;
    }
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    line += (k ? ", \"" : "\"") + name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
