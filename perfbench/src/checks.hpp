// Output checks computed apart from the program: the benchmark's own
// frame-size arithmetic (docs/protocol.md), its own squared-hinge and
// MLP formulas, and its own power iteration. Every check takes plain
// values, so the self-tests can perturb a result and expect rejection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "consensus/sparse_weight_matrix.hpp"
#include "core/training.hpp"
#include "linalg/matrix.hpp"
#include "topology/graph.hpp"
#include "data/dataset.hpp"
#include "linalg/vector.hpp"

namespace perfbench {

/// Failures found so far; empty means every check passed.
using Errors = std::vector<std::string>;

/// Bytes of a parameter-update frame carrying all N parameters:
/// tag (1) + total_params (4) + unchanged_count (4) + 8·N.
std::uint64_t full_frame_bytes(std::size_t params) noexcept;

/// A mixing matrix as plain rows of (column, weight).
struct PlainMatrix {
  std::size_t n = 0;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> rows;
  double at(std::size_t i, std::size_t j) const;
};

PlainMatrix plain(const snap::consensus::SparseWeightMatrix& w);
PlainMatrix plain(const snap::linalg::Matrix& w);

/// Graph edges as (u, v) pairs with u < v.
std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list(
    const snap::topology::Graph& graph);

/// What the frame checks need to know about the run.
struct WireExpectation {
  std::size_t params = 0;           ///< N
  std::uint64_t directed_links = 0; ///< 2|E| over the links that carry frames
  std::size_t full_rounds = 0;      ///< rounds 1..k must carry exactly full frames
  bool gossip = false;  ///< bound per round by activated links, not |E|
};

/// Per-round bytes within 2|E|·(9 + 8N) (gossip: activated links plus
/// STATE_SYNC bytes), exactly that figure before APE arms, totals equal
/// to the per-round sums, and hop-weighted cost equal to wire bytes.
void check_wire(const snap::core::TrainResult& result,
                const WireExpectation& expect, Errors& errors);

/// Symmetric, rows summing to 1, nonnegative (to 1e-12), zero off the graph
/// (`edges` as u < v pairs), and SLEM < 1 by power iteration on
/// W − 11ᵀ/m over the `members` (all nodes when empty; non-members must
/// have identity rows). Returns the SLEM estimate.
double check_mixing_matrix(const PlainMatrix& w,
                           const std::vector<std::pair<std::uint32_t,
                                                       std::uint32_t>>& edges,
                           const std::vector<bool>& members,
                           const std::string& what, Errors& errors);

enum class ModelKind { kLinearSvm, kMlp };

struct ModelShape {
  ModelKind kind = ModelKind::kLinearSvm;
  std::size_t features = 24;
  std::size_t hidden = 30;
  std::size_t classes = 10;
  double l2 = 1e-2;  ///< SVM: on the weights; MLP: on both weight matrices
};

/// Training objective at `params`: mean over the shards of each shard's
/// mean loss plus the L2 term (the benchmark's own formulas).
double objective(const ModelShape& shape, const snap::linalg::Vector& params,
                 const std::vector<snap::data::Dataset>& shards);

/// Fraction of `test` the benchmark's own forward pass classifies right.
double accuracy(const ModelShape& shape, const snap::linalg::Vector& params,
                const snap::data::Dataset& test);

/// Share of the most frequent class in `data`.
double majority_rate(const snap::data::Dataset& data);

/// final_train_loss and final_test_accuracy recomputed from final_params;
/// accuracy must beat the majority-class rate.
void check_model_outputs(const ModelShape& shape,
                         const snap::core::TrainResult& result,
                         const std::vector<snap::data::Dataset>& shards,
                         const snap::data::Dataset& test, Errors& errors);

/// Two per-round series must agree bit for bit (wall time excluded).
void check_same_series(const std::vector<snap::core::IterationStats>& a,
                       const std::vector<snap::core::IterationStats>& b,
                       const std::string& what, Errors& errors);

}  // namespace perfbench
