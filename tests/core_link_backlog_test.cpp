// Flat per-link backlog vs the map-backed oracle.
//
// core::LinkBacklog keeps each link's pending updates as an index-sorted
// run and merges batches with a two-pointer walk. Its frames must be the
// ones the map-backed backlog (tests/support/map_backlog.hpp) produced,
// element for element and bit for bit, and its checkpoint bytes must be
// identical. The property streams interleave sorted batches with silent
// rounds (down, pruned or non-activated links), full-vector join
// priming, heal-time clears and neighbor detach/re-attach. The
// checkpoint tests pin the load-side validation the sorted-run
// invariant depends on, down to a hand-crafted trainer blob.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/link_backlog.hpp"
#include "experiments/scenario.hpp"
#include "runtime/run_checkpoint.hpp"
#include "support/map_backlog.hpp"

namespace snap::core {
namespace {

using Updates = LinkBacklog::Run;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_frame(const Updates& flat, const Updates& oracle,
                       const std::string& where) {
  ASSERT_EQ(flat.size(), oracle.size()) << where;
  for (std::size_t k = 0; k < flat.size(); ++k) {
    EXPECT_EQ(flat[k].index, oracle[k].index) << where << " entry " << k;
    EXPECT_TRUE(same_bits(flat[k].value, oracle[k].value))
        << where << " entry " << k;
  }
}

std::vector<std::byte> saved(const LinkBacklog& backlog) {
  common::ByteWriter writer;
  backlog.save(writer);
  return writer.take();
}

std::vector<std::byte> saved(const testing::MapBacklog& backlog) {
  common::ByteWriter writer;
  backlog.save(writer);
  return writer.take();
}

Updates merged(Updates run, const Updates& batch) {
  LinkBacklog::merge_sorted(run, batch);
  return run;
}

TEST(LinkBacklogTest, MergeSortedIsLastWriteWinsInIndexOrder) {
  EXPECT_EQ(merged({}, {{1, 1.0}, {4, 4.0}}), (Updates{{1, 1.0}, {4, 4.0}}));
  EXPECT_EQ(merged({{1, 1.0}, {4, 4.0}}, {}), (Updates{{1, 1.0}, {4, 4.0}}));
  // Interleaved, no ties.
  EXPECT_EQ(merged({{0, 0.5}, {3, 3.5}, {9, 9.5}}, {{1, 1.0}, {5, 5.0}}),
            (Updates{{0, 0.5}, {1, 1.0}, {3, 3.5}, {5, 5.0}, {9, 9.5}}));
  // Ties take the batch's value and collapse to one entry.
  EXPECT_EQ(merged({{0, 0.5}, {3, 3.5}, {9, 9.5}},
                   {{0, -1.0}, {4, 4.0}, {9, -9.0}}),
            (Updates{{0, -1.0}, {3, 3.5}, {4, 4.0}, {9, -9.0}}));
  // Every index tied.
  EXPECT_EQ(merged({{2, 2.0}, {7, 7.0}}, {{2, 0.0}, {7, 1.0}}),
            (Updates{{2, 0.0}, {7, 1.0}}));
  // Batch entirely before / after the run.
  EXPECT_EQ(merged({{5, 5.0}}, {{1, 1.0}, {2, 2.0}}),
            (Updates{{1, 1.0}, {2, 2.0}, {5, 5.0}}));
  EXPECT_EQ(merged({{1, 1.0}}, {{1, 3.0}, {2, 2.0}, {6, 6.0}}),
            (Updates{{1, 3.0}, {2, 2.0}, {6, 6.0}}));
}

struct StreamCase {
  std::size_t nodes;
  std::uint32_t params;
  double send_p;    ///< per-parameter chance of being in a round's batch
  double silent_p;  ///< per-link chance the link carries no frame
  std::uint64_t seed;
};

void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << "{nodes " << c.nodes << ", params " << c.params << ", send_p "
      << c.send_p << ", silent_p " << c.silent_p << ", seed " << c.seed
      << "}";
}

class BacklogOracleTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(BacklogOracleTest, FramesAndCheckpointsMatchTheMapBacklog) {
  const StreamCase c = GetParam();
  common::Rng rng(c.seed);
  LinkBacklog flat(c.nodes, c.params);
  testing::MapBacklog oracle(c.nodes);

  // Attached neighbors per node (sorted), and the ones currently
  // detached — their links keep whatever backlog they had.
  std::vector<std::vector<topology::NodeId>> attached(c.nodes);
  std::vector<std::vector<topology::NodeId>> detached(c.nodes);
  for (topology::NodeId i = 0; i < c.nodes; ++i) {
    for (topology::NodeId j = 0; j < c.nodes; ++j) {
      if (j != i && rng.bernoulli(0.4)) attached[i].push_back(j);
    }
  }
  const auto random_node = [&] {
    return static_cast<topology::NodeId>(rng.uniform_u64(c.nodes));
  };
  const auto random_vector = [&] {
    linalg::Vector x(c.params);
    for (std::size_t p = 0; p < c.params; ++p) x[p] = rng.uniform(-1.0, 1.0);
    return x;
  };

  std::size_t frames = 0;
  for (std::size_t round = 1; round <= 150; ++round) {
    // Membership-style events between rounds.
    if (rng.bernoulli(0.1)) {  // detach one neighbor
      const topology::NodeId i = random_node();
      if (!attached[i].empty()) {
        const std::size_t k = rng.uniform_u64(attached[i].size());
        detached[i].push_back(attached[i][k]);
        attached[i].erase(attached[i].begin() +
                          static_cast<std::ptrdiff_t>(k));
      }
    }
    if (rng.bernoulli(0.1)) {  // re-attach one
      const topology::NodeId i = random_node();
      if (!detached[i].empty()) {
        const std::size_t k = rng.uniform_u64(detached[i].size());
        const topology::NodeId j = detached[i][k];
        detached[i].erase(detached[i].begin() +
                          static_cast<std::ptrdiff_t>(k));
        attached[i].insert(
            std::lower_bound(attached[i].begin(), attached[i].end(), j), j);
      }
    }
    if (rng.bernoulli(0.05)) {  // join priming, both directions
      const topology::NodeId u = random_node();
      const topology::NodeId v = random_node();
      if (u != v) {
        const linalg::Vector xu = random_vector();
        const linalg::Vector xv = random_vector();
        flat.prime(u, v, xu);
        oracle.prime(u, v, xu);
        flat.prime(v, u, xv);
        oracle.prime(v, u, xv);
      }
    }
    if (rng.bernoulli(0.05)) {  // heal-time clear, both directions
      const topology::NodeId u = random_node();
      const topology::NodeId v = random_node();
      if (u != v) {
        flat.clear(u, v);
        oracle.clear(u, v);
        flat.clear(v, u);
        oracle.clear(v, u);
      }
    }

    for (topology::NodeId i = 0; i < c.nodes; ++i) {
      Updates batch;
      for (std::uint32_t p = 0; p < c.params; ++p) {
        if (rng.bernoulli(c.send_p)) batch.push_back({p, rng.uniform()});
      }
      for (const topology::NodeId j : attached[i]) {
        Updates& run = flat.merge(i, j, batch);
        oracle.merge(i, j, batch);
        if (rng.bernoulli(c.silent_p)) continue;
        const Updates frame = std::exchange(run, {});
        expect_same_frame(frame, oracle.take(i, j),
                          "round " + std::to_string(round) + " link " +
                              std::to_string(i) + "->" + std::to_string(j));
        ++frames;
      }
    }

    if (round % 10 == 0) {
      const std::vector<std::byte> bytes = saved(flat);
      ASSERT_EQ(bytes, saved(oracle)) << "checkpoint bytes, round " << round;
      // Continue from a reloaded copy: load must rebuild the same runs.
      LinkBacklog reloaded(c.nodes, c.params);
      common::ByteReader reader(bytes);
      ASSERT_TRUE(reloaded.load(reader));
      ASSERT_EQ(reader.remaining(), 0u);
      flat = std::move(reloaded);
    }
  }
  EXPECT_GT(frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, BacklogOracleTest,
    ::testing::Values(StreamCase{6, 1, 0.5, 0.3, 1},
                      StreamCase{8, 25, 0.2, 0.5, 2},
                      StreamCase{8, 25, 1.0, 0.0, 3},
                      StreamCase{10, 40, 0.05, 0.8, 4},
                      StreamCase{5, 64, 0.6, 0.9, 5},
                      StreamCase{12, 25, 0.0, 0.3, 6}));

/// A small backlog with two non-empty links and one empty one.
LinkBacklog sample_backlog() {
  LinkBacklog backlog(3, 8);
  backlog.merge(0, 2, Updates{{1, 0.1}, {5, 0.5}});
  backlog.merge(0, 1, Updates{{0, 1.0}});
  backlog.clear(2, 0);
  return backlog;
}

/// sample_backlog()'s save bytes with node 0's first link (to node 1,
/// one entry) replaced by `entries`.
std::vector<std::byte> with_first_link(
    const std::vector<std::pair<std::uint32_t, double>>& entries) {
  common::ByteWriter writer;
  writer.write_u64(2);  // node 0: two links
  writer.write_u64(1);
  writer.write_u64(entries.size());
  for (const auto& [index, value] : entries) {
    writer.write_u32(index);
    writer.write_f64(value);
  }
  const std::vector<std::byte> original = saved(sample_backlog());
  // Skip node 0's link count and its first link (j, count, one entry).
  const std::size_t skip = 8 + 8 + 8 + (4 + 8);
  writer.write_bytes(std::span<const std::byte>(original).subspan(skip));
  return writer.take();
}

TEST(LinkBacklogTest, LoadRejectsMalformedRunsWithoutApplyingThem) {
  // Sanity: the crafted rewrite of the same entry round-trips.
  {
    LinkBacklog backlog(3, 8);
    const std::vector<std::byte> bytes = with_first_link({{0, 1.0}});
    ASSERT_EQ(bytes, saved(sample_backlog()));
    common::ByteReader reader(bytes);
    EXPECT_TRUE(backlog.load(reader));
  }
  const std::vector<std::vector<std::pair<std::uint32_t, double>>> bad = {
      {{3, 1.0}, {1, 2.0}},  // descending
      {{2, 1.0}, {2, 2.0}},  // duplicate index
      {{0, 1.0}, {8, 2.0}},  // index == total_params
  };
  for (const auto& entries : bad) {
    LinkBacklog backlog = sample_backlog();
    const std::vector<std::byte> before = saved(backlog);
    const std::vector<std::byte> bytes = with_first_link(entries);
    common::ByteReader reader(bytes);
    EXPECT_FALSE(backlog.load(reader));
    EXPECT_EQ(saved(backlog), before) << "a rejected blob was applied";
  }
  // Neighbor ids out of order, and truncation.
  {
    common::ByteWriter writer;
    writer.write_u64(2);
    writer.write_u64(2);
    writer.write_u64(0);
    writer.write_u64(1);
    writer.write_u64(0);
    for (int node = 0; node < 2; ++node) writer.write_u64(0);
    LinkBacklog backlog = sample_backlog();
    common::ByteReader reader(writer.bytes());
    EXPECT_FALSE(backlog.load(reader));
    EXPECT_EQ(saved(backlog), saved(sample_backlog()));
  }
  {
    std::vector<std::byte> bytes = saved(sample_backlog());
    bytes.pop_back();
    LinkBacklog backlog(3, 8);
    common::ByteReader reader(bytes);
    EXPECT_FALSE(backlog.load(reader));
  }
}

namespace fs = std::filesystem;

experiments::ScenarioConfig checkpoint_config() {
  experiments::ScenarioConfig cfg;
  cfg.workload = experiments::Workload::kCreditSvm;
  cfg.nodes = 8;
  cfg.train_samples = 400;
  cfg.test_samples = 100;
  cfg.seed = 7;
  cfg.fabric = runtime::FabricKind::kSync;
  cfg.convergence.min_iterations = 12;
  cfg.convergence.max_iterations = 12;
  return cfg;
}

/// Rewrites the SNAP algorithm blob of a fault-free sync checkpoint so
/// node 0's first backlog link carries `entries`. Fault-free, every
/// link drained its run in the checkpoint round, so the backlog section
/// is Σ_i (8 + 16·deg_i) bytes just ahead of the fixed tail (n round
/// counters, the restart flag and an empty activation list).
void rewrite_first_backlog_link(
    runtime::RunCheckpoint& ckpt, const topology::Graph& graph,
    std::uint32_t total_params,
    const std::vector<std::pair<std::uint32_t, double>>& entries) {
  const std::size_t n = graph.node_count();
  const std::size_t tail = 8 * n + 1 + 8;
  const std::size_t section = 8 * n + 32 * graph.edge_count();
  const std::vector<std::byte>& blob = ckpt.algorithm_state;
  ASSERT_GE(blob.size(), tail + section);
  const std::size_t start = blob.size() - tail - section;
  const std::span<const std::byte> backlog_bytes(blob.data() + start,
                                                 section);
  {
    // The located section must parse as a backlog on its own.
    LinkBacklog probe(n, total_params);
    common::ByteReader reader(backlog_bytes);
    ASSERT_TRUE(probe.load(reader));
    ASSERT_EQ(reader.remaining(), 0u);
  }
  common::ByteWriter writer;
  writer.write_bytes(std::span<const std::byte>(blob.data(), start));
  // Node 0: its link count and first neighbor id as saved, then the
  // crafted entries, then everything after that link's (empty) count.
  writer.write_bytes(backlog_bytes.subspan(0, 16));
  writer.write_u64(entries.size());
  for (const auto& [index, value] : entries) {
    writer.write_u32(index);
    writer.write_f64(value);
  }
  writer.write_bytes(std::span<const std::byte>(blob).subspan(start + 24));
  ckpt.algorithm_state = writer.take();
}

/// Writes a round-6 checkpoint, rewrites its backlog, and resumes.
void resume_with_backlog(
    const std::vector<std::pair<std::uint32_t, double>>& entries,
    const std::string& tag) {
  const fs::path path = fs::temp_directory_path() /
                        ("snap-backlog-" + tag + "-" +
                         std::to_string(::getpid()) + ".ckpt");
  fs::remove(path);
  experiments::ScenarioConfig first = checkpoint_config();
  first.convergence.min_iterations = 6;
  first.convergence.max_iterations = 6;
  first.checkpoint.path = path.string();
  first.checkpoint.every = 3;
  const experiments::Scenario half(first);
  half.run(experiments::Scheme::kSnap);
  std::optional<runtime::RunCheckpoint> ckpt =
      runtime::load_run_checkpoint(path.string());
  ASSERT_TRUE(ckpt.has_value());
  ASSERT_EQ(half.model().param_count(), 25u);  // 24 features + bias
  rewrite_first_backlog_link(*ckpt, half.graph(), 25, entries);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(runtime::save_run_checkpoint(path.string(), *ckpt));

  experiments::ScenarioConfig second = checkpoint_config();
  second.checkpoint.path = path.string();
  second.checkpoint.every = 3;
  second.checkpoint.resume = true;
  const experiments::Scenario resumed(second);
  // Remove the file however the run ends.
  struct Cleanup {
    fs::path path;
    ~Cleanup() { fs::remove(path); }
  } cleanup{path};
  resumed.run(experiments::Scheme::kSnap);
}

TEST(BacklogCheckpointTest, InOrderCraftedBacklogRestores) {
  EXPECT_NO_THROW(resume_with_backlog({{1, 0.25}, {3, 0.5}}, "in-order"));
}

/// The resume must fail inside restore_from_checkpoint, at the blob
/// check, not later in the run (an unsorted run that slipped through
/// would corrupt the next merge and trip a frame-size check instead).
void expect_restore_rejected(
    const std::vector<std::pair<std::uint32_t, double>>& entries,
    const std::string& tag) {
  try {
    resume_with_backlog(entries, tag);
    ADD_FAILURE() << tag << ": the crafted blob was restored";
  } catch (const common::ContractViolation& error) {
    EXPECT_NE(std::string(error.what())
                  .find("checkpoint algorithm blob failed to restore"),
              std::string::npos)
        << tag << ": " << error.what();
  }
}

TEST(BacklogCheckpointTest, OutOfOrderBacklogIsAContractViolation) {
  expect_restore_rejected({{3, 0.5}, {1, 0.25}}, "out-of-order");
}

TEST(BacklogCheckpointTest, OutOfRangeBacklogIndexIsAContractViolation) {
  expect_restore_rejected({{1, 0.25}, {25, 0.5}}, "out-of-range");
}

}  // namespace
}  // namespace snap::core
