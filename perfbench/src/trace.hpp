// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code only: around each
// set-up call, at the round boundaries an IterationObserver reports, and
// around every ml::Model call through TracingModel. Each thread appends
// to its own buffer, so recording takes no lock after a thread's first
// span; the buffers are merged when the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ml/model.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSetup,     ///< one set-up call (topology, data, weights, trainer)
  kTrain,     ///< the whole train() call
  kRound,     ///< one training round, between observer callbacks
  kGradient,  ///< ml::Model::loss_gradient
  kLoss,      ///< ml::Model::loss (the per-round evaluation)
  kPredict,   ///< ml::Model::predict (test accuracy)
};

const char* span_kind_name(SpanKind kind) noexcept;

struct Span {
  SpanKind kind = SpanKind::kSetup;
  std::int64_t start_ns = 0;  ///< since the recorder's origin
  std::int64_t end_ns = 0;
  std::uint32_t round = 0;    ///< training round the span fell in (0 = set-up)
  std::uint32_t label = 0;    ///< index into Recorder::labels() for kSetup
};

/// Collects spans from any number of threads.
class Recorder {
 public:
  Recorder();

  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Records a finished span on the calling thread's buffer.
  void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t label = 0);

  /// Interns a set-up call name ("topology.generate", ...).
  std::uint32_t label(const std::string& name);
  const std::vector<std::string>& labels() const noexcept { return labels_; }

  /// The round new spans are attributed to (set by the observer).
  void set_round(std::uint32_t round) noexcept {
    round_.store(round, std::memory_order_relaxed);
  }

  /// Every span recorded so far, sorted by start time.
  std::vector<Span> collect() const;

  /// Writes spans as CSV: name,start_us,end_us,parent,round. The parent
  /// of a model span is its round, of a round the train span, of a
  /// set-up span the episode.
  void write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint32_t> round_{0};
  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> labels_;
};

/// Times one scope into a recorder (no-op when the recorder is null).
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, SpanKind kind, std::uint32_t label = 0)
      : recorder_(recorder),
        kind_(kind),
        label_(label),
        start_(recorder ? recorder->now_ns() : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->record(kind_, start_, recorder_->now_ns(), label_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;
  SpanKind kind_;
  std::uint32_t label_;
  std::int64_t start_;
};

/// ml::Model decorator that records a span around every call the
/// trainer makes. Thread-safe: the trainer calls models from its pool.
class TracingModel final : public snap::ml::Model {
 public:
  TracingModel(const snap::ml::Model& inner, Recorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  std::size_t param_count() const noexcept override {
    return inner_.param_count();
  }
  std::string name() const override { return inner_.name(); }
  double loss(const snap::linalg::Vector& params,
              const snap::data::Dataset& data) const override;
  snap::ml::LossGradient loss_gradient(
      const snap::linalg::Vector& params,
      const snap::data::Dataset& data) const override;
  std::size_t predict(const snap::linalg::Vector& params,
                      std::span<const double> features) const override;
  snap::linalg::Vector initial_params(snap::common::Rng& rng) const override {
    return inner_.initial_params(rng);
  }

 private:
  const snap::ml::Model& inner_;
  Recorder& recorder_;
};

/// Per-round summary derived from the spans of one train() call.
struct RoundProfile {
  std::vector<double> round_ms;       ///< wall time per round
  std::vector<double> round_self_ms;  ///< wall time not covered by model spans
  std::uint64_t gradient_calls = 0;
  double gradient_busy_s = 0.0;  ///< summed over threads
  std::uint64_t loss_calls = 0;
  double loss_busy_s = 0.0;
  std::uint64_t predict_calls = 0;
  double predict_busy_s = 0.0;
};

/// Builds the profile from spans: rounds are the kRound spans in order;
/// self time subtracts the union of model spans inside each round.
RoundProfile profile_rounds(std::span<const Span> spans);

}  // namespace perfbench
