#include "arch/merge_hits.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ferex::arch {

std::vector<core::Hit> merge_hits(
    std::span<const std::vector<core::Hit>> parts, std::size_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A sole non-empty part (one live bank or shard) is the whole answer:
  // its hit sequence and margins are already that unit's own decisions.
  std::size_t live_parts = 0;
  std::size_t sole = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (parts[p].empty()) continue;
    ++live_parts;
    sole = p;
  }
  if (live_parts == 1) return parts[sole];
  std::vector<std::size_t> heads(parts.size(), 0);
  std::vector<core::Hit> out;
  out.reserve(k);
  for (std::size_t taken = 0; taken < k; ++taken) {
    // The smallest head, ties to the lowest global row: the lowest-index
    // rule of one LTA sweep over every row, since each unit's rows map
    // to global rows in order.
    const core::Hit* best = nullptr;
    std::size_t best_part = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (heads[p] >= parts[p].size()) continue;
      const core::Hit& head = parts[p][heads[p]];
      if (best == nullptr || head.sensed_current_a < best->sensed_current_a ||
          (head.sensed_current_a == best->sensed_current_a &&
           head.global_row < best->global_row)) {
        best = &head;
        best_part = p;
      }
    }
    if (best == nullptr) {
      throw std::logic_error("merge_hits: the parts hold fewer than k hits");
    }
    ++heads[best_part];
    // With every part spent the margin is +inf, as one comparator's final
    // round reports it (decide_k_detailed drives each round winner to
    // +inf current but keeps it competing).
    double next = kInf;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (heads[p] < parts[p].size()) {
        next = std::min(next, parts[p][heads[p]].sensed_current_a);
      }
    }
    core::Hit hit = *best;
    hit.margin_a = next - best->sensed_current_a;
    out.push_back(hit);
  }
  return out;
}

}  // namespace ferex::arch
