#include "core/link_backlog.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace snap::core {

LinkBacklog::LinkBacklog(std::size_t node_count, std::uint32_t total_params)
    : total_params_(total_params), links_(node_count) {}

LinkBacklog::Run& LinkBacklog::run_of(topology::NodeId from,
                                      topology::NodeId to) {
  SNAP_ASSERT(from < links_.size());
  Links& links = links_[from];
  const auto it = std::lower_bound(
      links.begin(), links.end(), to,
      [](const auto& link, topology::NodeId j) { return link.first < j; });
  if (it != links.end() && it->first == to) return it->second;
  return links.insert(it, {to, Run{}})->second;
}

void LinkBacklog::merge_sorted(Run& run,
                               std::span<const net::ParamUpdate> sorted) {
  if (sorted.empty()) return;
  if (run.empty()) {
    run.assign(sorted.begin(), sorted.end());
    return;
  }
  // Merge from the back into the grown run: the write cursor never
  // overtakes the unread part of the old run, so no scratch buffer is
  // needed. Ties collapse to one entry, which leaves a gap of unused
  // slots at the front; it is closed with one shift at the end.
  std::size_t a = run.size();
  std::size_t b = sorted.size();
  std::size_t w = a + b;
  run.resize(w);
  while (b > 0) {
    const net::ParamUpdate& incoming = sorted[b - 1];
    if (a > 0 && run[a - 1].index > incoming.index) {
      run[--w] = run[--a];
    } else {
      if (a > 0 && run[a - 1].index == incoming.index) --a;
      run[--w] = incoming;
      --b;
    }
  }
  // Entries [0, a) are the untouched old prefix, [w, end) the merged
  // tail; slide the tail down over the gap.
  if (w > a) {
    std::move(run.begin() + static_cast<std::ptrdiff_t>(w), run.end(),
              run.begin() + static_cast<std::ptrdiff_t>(a));
    run.resize(run.size() - (w - a));
  }
}

LinkBacklog::Run& LinkBacklog::merge(topology::NodeId from,
                                     topology::NodeId to,
                                     std::span<const net::ParamUpdate> sorted) {
  Run& run = run_of(from, to);
  merge_sorted(run, sorted);
  return run;
}

void LinkBacklog::prime(topology::NodeId from, topology::NodeId to,
                        const linalg::Vector& x) {
  SNAP_REQUIRE(x.size() == total_params_);
  Run& run = run_of(from, to);
  run.resize(total_params_);
  for (std::uint32_t p = 0; p < total_params_; ++p) run[p] = {p, x[p]};
}

void LinkBacklog::clear(topology::NodeId from, topology::NodeId to) {
  run_of(from, to).clear();
}

void LinkBacklog::save(common::ByteWriter& writer) const {
  for (const Links& links : links_) {
    writer.write_u64(links.size());
    for (const auto& [j, run] : links) {
      writer.write_u64(j);
      writer.write_u64(run.size());
      for (const net::ParamUpdate& u : run) {
        writer.write_u32(u.index);
        writer.write_f64(u.value);
      }
    }
  }
}

bool LinkBacklog::load(common::ByteReader& reader) {
  const std::size_t n = links_.size();
  std::vector<Links> staged(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t link_count = reader.read_u64();
    if (!reader.ok() || link_count > n) return false;
    staged[i].reserve(link_count);
    for (std::uint64_t k = 0; k < link_count; ++k) {
      const std::uint64_t j = reader.read_u64();
      const std::uint64_t entries = reader.read_u64();
      if (!reader.ok() || j >= n || entries > total_params_ ||
          (!staged[i].empty() && j <= staged[i].back().first)) {
        return false;
      }
      Run run(entries);
      for (std::uint64_t e = 0; e < entries; ++e) {
        run[e].index = reader.read_u32();
        run[e].value = reader.read_f64();
        if (!reader.ok() || run[e].index >= total_params_ ||
            (e > 0 && run[e].index <= run[e - 1].index)) {
          return false;
        }
      }
      staged[i].emplace_back(static_cast<topology::NodeId>(j),
                             std::move(run));
    }
  }
  links_ = std::move(staged);
  return true;
}

}  // namespace snap::core
