// The global decision stage over per-unit results: the banks of a
// BankedAm and the shards of a serve::ShardedIndex both combine their
// hit lists through merge_hits, so one rule picks winners and margins
// at both layers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/hit.hpp"

namespace ferex::arch {

/// k-way head merge. Each part is one unit's hits, nearest first, already
/// in global rows with `bank` set; a unit that did not fire sends an empty
/// part. Each round takes the smallest head by sensed current, ties to
/// the lowest global row, and reports its margin as the gap to the best
/// remaining head (+inf once every part is spent). A sole non-empty part
/// passes through unchanged, margins included.
///
/// Each caller picks its part sizes. A part one hit longer than the unit
/// can contribute keeps the true runner-up among the heads, so the merged
/// margins equal one comparator's over every row; a part of just the
/// unit's winner makes the margin the gap to the best other winner.
/// Throws std::logic_error when the parts hold fewer than k hits.
std::vector<core::Hit> merge_hits(
    std::span<const std::vector<core::Hit>> parts, std::size_t k);

}  // namespace ferex::arch
