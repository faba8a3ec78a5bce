#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

struct LocalCache {
  std::uint64_t id = 0;
  void* buffer = nullptr;
};
thread_local LocalCache local_cache;

}  // namespace

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kSetup:
      return "setup";
    case SpanKind::kTrain:
      return "core.train";
    case SpanKind::kRound:
      return "core.round";
    case SpanKind::kGradient:
      return "ml.loss_gradient";
    case SpanKind::kLoss:
      return "ml.loss";
    case SpanKind::kPredict:
      return "ml.predict";
  }
  return "?";
}

Recorder::Recorder()
    : origin_(std::chrono::steady_clock::now()),
      id_(next_recorder_id.fetch_add(1)) {}

Recorder::Buffer& Recorder::local_buffer() {
  if (local_cache.id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    local_cache.id = id_;
    local_cache.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(local_cache.buffer);
}

void Recorder::record(SpanKind kind, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint32_t label) {
  local_buffer().spans.push_back(
      Span{kind, start_ns, end_ns, round_.load(std::memory_order_relaxed),
           label});
}

std::uint32_t Recorder::label(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(labels_.begin(), labels_.end(), name);
  if (it != labels_.end()) {
    return static_cast<std::uint32_t>(it - labels_.begin());
  }
  labels_.push_back(name);
  return static_cast<std::uint32_t>(labels_.size() - 1);
}

std::vector<Span> Recorder::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void Recorder::write_csv(const std::string& path) const {
  const std::vector<Span> spans = collect();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("name,start_us,end_us,parent,round\n", out);
  for (const Span& s : spans) {
    std::string name = span_kind_name(s.kind);
    std::string parent;
    switch (s.kind) {
      case SpanKind::kSetup:
        name = labels_.at(s.label);
        parent = "episode";
        break;
      case SpanKind::kTrain:
        parent = "episode";
        break;
      case SpanKind::kRound:
        parent = "core.train";
        break;
      default:
        parent = "core.round";
        break;
    }
    std::fprintf(out, "%s,%.3f,%.3f,%s,%u\n", name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3, parent.c_str(),
                 s.round);
  }
  std::fclose(out);
}

double TracingModel::loss(const snap::linalg::Vector& params,
                          const snap::data::Dataset& data) const {
  ScopedSpan span(&recorder_, SpanKind::kLoss);
  return inner_.loss(params, data);
}

snap::ml::LossGradient TracingModel::loss_gradient(
    const snap::linalg::Vector& params,
    const snap::data::Dataset& data) const {
  ScopedSpan span(&recorder_, SpanKind::kGradient);
  return inner_.loss_gradient(params, data);
}

std::size_t TracingModel::predict(const snap::linalg::Vector& params,
                                  std::span<const double> features) const {
  ScopedSpan span(&recorder_, SpanKind::kPredict);
  return inner_.predict(params, features);
}

RoundProfile profile_rounds(std::span<const Span> spans) {
  RoundProfile out;
  std::vector<const Span*> rounds;
  std::vector<std::pair<std::int64_t, std::int64_t>> model;
  for (const Span& s : spans) {
    const double seconds = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    switch (s.kind) {
      case SpanKind::kRound:
        rounds.push_back(&s);
        break;
      case SpanKind::kGradient:
        ++out.gradient_calls;
        out.gradient_busy_s += seconds;
        model.emplace_back(s.start_ns, s.end_ns);
        break;
      case SpanKind::kLoss:
        ++out.loss_calls;
        out.loss_busy_s += seconds;
        model.emplace_back(s.start_ns, s.end_ns);
        break;
      case SpanKind::kPredict:
        ++out.predict_calls;
        out.predict_busy_s += seconds;
        model.emplace_back(s.start_ns, s.end_ns);
        break;
      default:
        break;
    }
  }
  std::sort(model.begin(), model.end());
  // Union of the model intervals, merged once; each round then subtracts
  // the covered length inside its own window.
  std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  for (const auto& iv : model) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  std::size_t cursor = 0;
  for (const Span* r : rounds) {
    std::int64_t covered = 0;
    while (cursor < merged.size() && merged[cursor].second <= r->start_ns) {
      ++cursor;
    }
    for (std::size_t k = cursor;
         k < merged.size() && merged[k].first < r->end_ns; ++k) {
      covered += std::min(merged[k].second, r->end_ns) -
                 std::max(merged[k].first, r->start_ns);
    }
    const double wall = static_cast<double>(r->end_ns - r->start_ns) / 1e6;
    out.round_ms.push_back(wall);
    out.round_self_ms.push_back(wall - static_cast<double>(covered) / 1e6);
  }
  return out;
}

}  // namespace perfbench
