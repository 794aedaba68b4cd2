#include "serve/sharded_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/merge_topk.hpp"
#include "util/parallel.hpp"

namespace ferex::serve {

namespace {

/// Per-shard engine options: seed salted per shard (shard 0 keeps the
/// base seed, so a 1-shard fleet is bit-identical to the unsharded
/// index), and — with several engine shards — per-shard row fan-out
/// disabled because this layer owns the cross-shard fan (the same rule
/// BankedAm applies to its banks; scheduling never affects results).
core::FerexOptions shard_engine_options(const ShardedOptions& options,
                                        std::size_t shard) {
  auto engine_options = options.engine;
  engine_options.seed = ShardedIndex::shard_seed(options, shard);
  if (options.backend == ShardBackend::kEngine && options.shards > 1) {
    engine_options.intra_query_min_devices = 0;
  }
  return engine_options;
}

/// Concatenated per-row live mask of one shard, in shard-local row
/// order, for routing reconstruction after recovery.
std::vector<std::uint8_t> shard_live_mask(const AmIndex& shard) {
  if (const auto* engine = dynamic_cast<const EngineIndex*>(&shard)) {
    const auto mask = engine->engine().live_mask();
    return {mask.begin(), mask.end()};
  }
  const auto& banked = dynamic_cast<const BankedIndex&>(shard).banked();
  std::vector<std::uint8_t> mask;
  mask.reserve(banked.stored_count());
  for (std::size_t b = 0; b < banked.bank_count(); ++b) {
    const auto bank_mask = banked.bank(b).live_mask();
    mask.insert(mask.end(), bank_mask.begin(), bank_mask.end());
  }
  return mask;
}

}  // namespace

ShardedIndex::ShardedIndex(ShardedOptions options) : options_(options) {
  if (options_.shards == 0) {
    throw std::invalid_argument("ShardedIndex: shards == 0");
  }
  if (options_.shard_block == 0) {
    throw std::invalid_argument("ShardedIndex: shard_block == 0");
  }
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(make_shard(s));
  }
}

std::unique_ptr<AmIndex> ShardedIndex::make_shard(std::size_t shard) const {
  if (options_.backend == ShardBackend::kBanked) {
    arch::BankedOptions banked_options;
    banked_options.engine = shard_engine_options(options_, shard);
    banked_options.bank_rows = options_.bank_rows;
    return std::make_unique<BankedIndex>(banked_options);
  }
  return std::make_unique<EngineIndex>(shard_engine_options(options_, shard));
}

std::size_t ShardedIndex::rows_for_shard(std::size_t shard,
                                         std::size_t total) const noexcept {
  const std::size_t full_blocks = total / options_.shard_block;
  const std::size_t tail = total % options_.shard_block;
  std::size_t rows = (full_blocks / options_.shards) * options_.shard_block;
  if (full_blocks % options_.shards > shard) rows += options_.shard_block;
  if (full_blocks % options_.shards == shard) rows += tail;
  return rows;
}

std::pair<std::size_t, std::size_t> ShardedIndex::next_insert_target() const {
  // The overall lowest freed global row is also the lowest freed row of
  // its own shard (any lower freed row there would beat it globally),
  // which is exactly the slot that shard's own insert() reuses first —
  // so global routing and shard-local reuse agree without a table.
  const std::size_t global =
      free_rows_.empty() ? stored_count() : *free_rows_.begin();
  return {shard_of(global), global};
}

std::size_t ShardedIndex::stored_count() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->stored_count();
  return total;
}

std::size_t ShardedIndex::live_count() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->live_count();
  return total;
}

std::size_t ShardedIndex::dims() const noexcept {
  for (const auto& shard : shards_) {
    if (shard->stored_count() > 0) return shard->dims();
  }
  return 0;
}

void ShardedIndex::do_configure(csp::DistanceMetric metric, int bits) {
  metric_ = metric;
  bits_ = bits;
  configured_ = true;
  for (auto& shard : shards_) shard->configure(metric, bits);
}

void ShardedIndex::do_store(const std::vector<std::vector<int>>& database) {
  if (!configured_) {
    throw std::logic_error("ShardedIndex: store before configure");
  }
  std::vector<std::vector<std::vector<int>>> slices(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    slices[s].reserve(rows_for_shard(s, database.size()));
  }
  for (std::size_t g = 0; g < database.size(); ++g) {
    slices[shard_of(g)].push_back(database[g]);
  }
  // Validate every slice against one scratch shard first (same geometry
  // as every real shard — only the seed differs), so a bad row leaves
  // the served fleet untouched; then restore the real shards in place.
  // In place matters: per-shard WAL handles and async sessions hold
  // references to the shard objects, so store must never swap them out.
  auto probe = make_shard(0);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    if (slices[s].empty()) continue;
    probe->configure(metric_, bits_);
    probe->store(slices[s]);
  }
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_[s]->configure(metric_, bits_);
    // A shard with no rows stays configured-but-unstored: it never
    // fires, draws no noise, and accepts the fleet's first overflow
    // insert later.
    if (!slices[s].empty()) shards_[s]->store(slices[s]);
  }
  free_rows_.clear();
}

WriteReceipt ShardedIndex::do_insert(std::span<const int> vector) {
  if (!configured_) {
    throw std::logic_error("ShardedIndex: insert before configure");
  }
  // Dimensional check at the fleet level: a fresh (never-stored) shard
  // would accept any length, establishing a shard-local dims that
  // disagrees with the rest of the fleet.
  const std::size_t fleet_dims = dims();
  if (fleet_dims != 0 && vector.size() != fleet_dims) {
    throw std::invalid_argument(
        "ShardedIndex::insert: vector length != stored dimensionality");
  }
  const auto [shard, global] = next_insert_target();
  WriteReceipt receipt = shards_[shard]->insert(vector);
  free_rows_.erase(global);
  receipt.global_row = global;
  receipt.bank = shard;
  return receipt;
}

WriteReceipt ShardedIndex::do_remove(std::size_t global_row) {
  const std::size_t shard = shard_of(global_row);
  // The shard rejects an out-of-range or already-removed local row with
  // the same typed errors the unsharded backends use; the freed set
  // only learns about rows that really were erased.
  WriteReceipt receipt = shards_[shard]->remove(to_local(global_row));
  free_rows_.insert(global_row);
  receipt.global_row = global_row;
  receipt.bank = shard;
  return receipt;
}

WriteReceipt ShardedIndex::do_update(std::size_t global_row,
                                     std::span<const int> vector) {
  const std::size_t shard = shard_of(global_row);
  WriteReceipt receipt = shards_[shard]->update(to_local(global_row), vector);
  // An update revives a removed slot; a live slot is a no-op here.
  free_rows_.erase(global_row);
  receipt.global_row = global_row;
  receipt.bank = shard;
  return receipt;
}

void ShardedIndex::validate_backend_query(std::span<const int> query) const {
  // Every shard enforces the same configured encoding, so the first
  // stored shard speaks for the fleet. (With nothing stored anywhere,
  // live_count() == 0 already rejected the request upstream with the
  // typed EmptyIndex.)
  for (const auto& shard : shards_) {
    if (shard->stored_count() == 0) continue;
    if (const auto* engine = dynamic_cast<const EngineIndex*>(shard.get())) {
      engine->engine().validate_query(query);
    } else {
      dynamic_cast<const BankedIndex&>(*shard).banked().validate_query(query);
    }
    return;
  }
}

bool ShardedIndex::inner_fan_for_batch(std::size_t batch_size) const {
  // A batch that can saturate the pool fans across requests; a smaller
  // batch over a multi-shard fleet serves requests serially so each one
  // fans its shards instead (bit-identical either way).
  if (batch_size == 0 || batch_size >= util::pool_width()) return false;
  std::size_t live_shards = 0;
  for (const auto& shard : shards_) {
    live_shards += shard->live_count() > 0 ? 1 : 0;
  }
  return live_shards > 1 && live_shards >= batch_size;
}

double ShardedIndex::merge_key(const Hit& hit) const noexcept {
  // The merge orders on what the fidelity actually sensed: currents at
  // circuit fidelity, exact distances at nominal (where the sensed
  // current IS the distance, so the two keys agree bit for bit).
  return options_.engine.fidelity == core::SearchFidelity::kNominal
             ? static_cast<double>(hit.nominal_distance)
             : hit.sensed_current_a;
}

std::vector<SearchResponse> ShardedIndex::scatter(std::span<const int> query,
                                                  std::size_t k,
                                                  std::uint64_t ordinal,
                                                  bool in_query_pool) const {
  std::vector<SearchResponse> parts(shards_.size());
  std::size_t live_shards = 0;
  for (const auto& shard : shards_) {
    live_shards += shard->live_count() > 0 ? 1 : 0;
  }
  const auto run_shard = [&](std::size_t s) {
    const std::size_t live = shards_[s]->live_count();
    // A fully deleted shard stops firing: no search, no noise draws —
    // its comparator streams are exactly those of a fleet that never
    // included it.
    if (live == 0) return;
    SearchRequest sub;
    sub.query.assign(query.begin(), query.end());
    // Overfetch one extra hit per shard so the merge always has a live
    // losing candidate for margin reconstruction — unless the whole
    // fleet is exhausted (k == total live), where the margin is +inf
    // exactly as the unsharded final round reports (round winners stay
    // live at masked +inf current, so its `second` is +inf). A sole
    // live shard needs no overfetch: its response passes through
    // wholesale.
    sub.k = (k == 1 || live_shards == 1) ? k : std::min(k + 1, live);
    parts[s] = shards_[s]->search_at(sub, ordinal);
  };
  if (!in_query_pool && live_shards > 1 && util::pool_width() > 1) {
    // Affine schedule: shard s lands on the same pool participant on
    // every query, keeping its cached bias/current tables warm in one
    // thread's caches across a serving stream.
    util::parallel_for_affine(shards_.size(), run_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) run_shard(s);
  }
  return parts;
}

SearchResponse ShardedIndex::merge_shard_responses(
    std::span<const SearchResponse> parts, std::size_t k) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SearchResponse out;
  // A sole live shard (a 1-shard fleet, or every other shard fully
  // deleted) passes through wholesale: its hit sequence and margins ARE
  // the fleet's, so the fleet is bit-identical to that shard served
  // alone at every k and both fidelities.
  std::size_t live_parts = 0;
  std::size_t sole = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    if (parts[s].hits.empty()) continue;
    ++live_parts;
    sole = s;
  }
  if (live_parts == 1) {
    out = parts[sole];
    for (auto& hit : out.hits) {
      hit.global_row = to_global(sole, hit.global_row);
      hit.bank = sole;
    }
    return out;
  }
  if (k == 1) {
    // Single-winner gather: the shared two-best merge (the same rule
    // BankedAm applies across banks) picks the winner and reconstructs
    // its margin against the best losing shard winner.
    std::vector<util::GroupWinner> winners(parts.size());
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].hits.empty()) continue;  // dead shard
      winners[s].live = true;
      winners[s].sensed = merge_key(parts[s].hits.front());
      winners[s].margin_a = parts[s].hits.front().margin_a;
    }
    const auto merged = util::merge_topk(winners);
    Hit hit = parts[merged.group].hits.front();
    hit.global_row = to_global(merged.group, hit.global_row);
    hit.bank = merged.group;
    hit.margin_a = merged.margin_a;
    out.hits.push_back(hit);
    return out;
  }
  // k-way head merge over the per-shard rank orders: take the smallest
  // head (ties to the lowest global row, matching the deterministic
  // LTA sweep's lowest-index rule through the monotone local->global
  // map), then report its margin as the gap to the best remaining head.
  std::vector<std::size_t> heads(parts.size(), 0);
  out.hits.reserve(k);
  for (std::size_t taken = 0; taken < k; ++taken) {
    std::size_t best_shard = parts.size();
    std::size_t best_row = 0;
    double best_key = kInf;
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (heads[s] >= parts[s].hits.size()) continue;
      const Hit& head = parts[s].hits[heads[s]];
      const double key = merge_key(head);
      const std::size_t row = to_global(s, head.global_row);
      if (best_shard == parts.size() || key < best_key ||
          (key == best_key && row < best_row)) {
        best_shard = s;
        best_key = key;
        best_row = row;
      }
    }
    if (best_shard == parts.size()) {
      // Unreachable: validate_request bounds k by the fleet's live
      // count and every live shard overfetched.
      throw std::logic_error("ShardedIndex: merge ran out of candidates");
    }
    Hit hit = parts[best_shard].hits[heads[best_shard]];
    ++heads[best_shard];
    hit.global_row = best_row;
    hit.bank = best_shard;
    double next_key = kInf;
    bool have_next = false;
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (heads[s] >= parts[s].hits.size()) continue;
      const double key = merge_key(parts[s].hits[heads[s]]);
      if (!have_next || key < next_key) {
        next_key = key;
        have_next = true;
      }
    }
    // Exhausted fleet (k == total live): margin +inf, exactly the flat
    // comparator's final round (decide_k_detailed masks each round
    // winner to +inf current but keeps it live and competing, so its
    // `second` is +inf — and so is a sole live shard's own final-round
    // margin, which the passthrough inherits). The heads always cover
    // the true global runner-up otherwise (every shard overfetched one),
    // so these gaps equal the flat index's round margins bit for bit at
    // nominal fidelity.
    hit.margin_a = have_next ? next_key - best_key : kInf;
    out.hits.push_back(hit);
  }
  return out;
}

SearchResponse ShardedIndex::search_core(std::span<const int> query,
                                         std::size_t k, std::uint64_t ordinal,
                                         bool in_query_pool) const {
  const auto parts = scatter(query, k, ordinal, in_query_pool);
  return merge_shard_responses(parts, k);
}

SearchResponse ShardedIndex::search_shard(std::size_t shard,
                                          const SearchRequest& request) {
  check_mutable("search_shard");
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedIndex::search_shard: shard");
  }
  // Validate against the target shard before consuming a fleet ordinal,
  // so a rejected request leaves the noise-stream sequence untouched.
  shards_[shard]->validate_request(request);
  const std::uint64_t ordinal =
      request.ordinal ? *request.ordinal : query_serial();
  if (!request.ordinal) set_query_serial(ordinal + 1);
  SearchResponse response = shards_[shard]->search_at(request, ordinal);
  for (auto& hit : response.hits) {
    hit.global_row = to_global(shard, hit.global_row);
    hit.bank = shard;
  }
  return response;
}

void ShardedIndex::rebuild_routing() {
  check_mutable("rebuild_routing");
  // Recovery replays configure into each shard, not through this layer:
  // adopt the cache from any configured shard (they all agree — a fleet
  // configures as one).
  for (const auto& shard : shards_) {
    const auto* engine = dynamic_cast<const EngineIndex*>(shard.get());
    if (engine != nullptr && engine->engine().configured()) {
      metric_ = engine->engine().metric();
      bits_ = engine->engine().bits();
      configured_ = true;
      break;
    }
    const auto* banked = dynamic_cast<const BankedIndex*>(shard.get());
    if (banked != nullptr && banked->banked().configured()) {
      metric_ = banked->banked().metric();
      bits_ = banked->banked().bits();
      configured_ = true;
      break;
    }
  }
  free_rows_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto mask = shard_live_mask(*shards_[s]);
    for (std::size_t local = 0; local < mask.size(); ++local) {
      if (mask[local] == 0) free_rows_.insert(to_global(s, local));
    }
  }
}

}  // namespace ferex::serve
