// The benchmark's workloads. One episode = set up from the seed, train a
// fixed number of rounds, run the output checks. A run repeats episodes
// until its time is used, so every run attempts whole episodes and the
// share of failed operations is the same in every run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct EpisodeOptions {
  std::uint64_t seed = 1;
  bool trace = false;
  /// Where the traced episode writes its spans (empty = do not write).
  std::string spans_path;
  /// Scratch directory for socket rendezvous and shard results.
  std::string work_dir;
  /// Deadline for child shard processes, seconds since the epoch of
  /// std::chrono::steady_clock.
  double child_deadline_s = 0.0;
};

struct EpisodeResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Errors errors;
  /// End-to-end values of this episode (setup_s, rounds_per_s, ...).
  std::map<std::string, double> e2e;
  /// Per-layer scalars of this episode (traced runs).
  std::map<std::string, double> layer;
  /// Per-layer samples pooled over the run's episodes (round times).
  std::map<std::string, std::vector<double>> pooled;
};

using EpisodeFn = EpisodeResult (*)(const EpisodeOptions&);

struct Workload {
  const char* name;
  EpisodeFn run;
};

const std::vector<Workload>& workloads();

/// Full-batch gradient descent on the workload's pooled training data,
/// same rounds and step size: the single-worker reference.
struct CentralizedReference {
  double rounds_per_s = 0.0;
  double final_loss = 0.0;
  double test_accuracy = 0.0;
};
CentralizedReference centralized_reference(const std::string& workload,
                                           std::uint64_t seed);

/// The per-layer metric names every traced run reports, with units.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
