#include "serve/sharded_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "arch/merge_hits.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/parallel.hpp"

namespace ferex::serve {

namespace {

/// A shard's per-row live mask in shard-local row order (its banks'
/// masks concatenated), for routing reconstruction after recovery.
std::vector<std::uint8_t> live_mask(const BackendState& state) {
  std::vector<std::uint8_t> mask;
  for (const auto& bank : state.banks) {
    mask.insert(mask.end(), bank.live.begin(), bank.live.end());
  }
  return mask;
}

/// Returns a shard to its fresh configured state in place: with every
/// live row removed, an engine or banked array compacts to exactly a
/// fresh one (configure() alone keeps rows).
void empty_shard(AmIndex& shard) {
  const auto mask = live_mask(shard.backend_state());
  for (std::size_t local = 0; local < mask.size(); ++local) {
    if (mask[local] != 0) shard.remove(local);
  }
  shard.compact();
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
  shard_live_.assign(options_.shards, 0);
}

std::unique_ptr<AmIndex> ShardedIndex::make_shard(std::size_t shard) const {
  // Seed salted per shard; shard 0 keeps the base seed, so a 1-shard
  // fleet is bit-identical to the unsharded index.
  auto engine_options = options_.engine;
  engine_options.seed = shard_seed(options_, shard);
  if (options_.backend == ShardBackend::kBanked) {
    arch::BankedOptions banked_options;
    banked_options.engine = engine_options;
    banked_options.bank_rows = options_.bank_rows;
    return std::make_unique<BankedIndex>(banked_options);
  }
  return std::make_unique<EngineIndex>(engine_options);
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
  if (database.empty()) {
    throw std::invalid_argument("ShardedIndex::store: empty database");
  }
  // Every row is checked against the fleet's length and alphabet before
  // any shard is touched, so a bad row leaves the served fleet as it
  // was. The shards are then restored in place: per-shard WAL handles
  // and async sessions hold references to the shard objects.
  for (const auto& row : database) check_vector(row, database.front().size());
  std::vector<std::vector<std::vector<int>>> slices(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    slices[s].reserve(rows_for_shard(s, database.size()));
  }
  for (std::size_t g = 0; g < database.size(); ++g) {
    slices[shard_of(g)].push_back(database[g]);
  }
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_[s]->configure(metric_, bits_);
    // A shard with no rows stays configured-but-unstored: it never
    // fires, draws no noise, and accepts the fleet's first overflow
    // insert later.
    if (!slices[s].empty()) {
      shards_[s]->store(slices[s]);
    } else if (shards_[s]->stored_count() > 0) {
      empty_shard(*shards_[s]);
    }
    shard_live_[s] = slices[s].size();
  }
  stored_ = database.size();
  dims_ = database.front().size();
  free_rows_.clear();
}

void ShardedIndex::check_vector(std::span<const int> vector,
                                std::size_t dims) const {
  // A fresh (never-stored) shard would accept any length, establishing
  // a shard-local dims that disagrees with the rest of the fleet; the
  // shards' own alphabet checks could only run where the row lands.
  if (vector.empty() || (dims != 0 && vector.size() != dims)) {
    throw std::invalid_argument(
        "ShardedIndex: vector length != stored dimensionality");
  }
  const std::size_t alphabet = std::size_t{1} << bits_;
  for (const int v : vector) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet) {
      throw std::out_of_range("ShardedIndex: value outside the alphabet");
    }
  }
}

void ShardedIndex::check_row(std::size_t global_row) const {
  if (!configured_) {
    throw std::logic_error("ShardedIndex: write before configure");
  }
  if (global_row >= stored_) {
    throw std::out_of_range("ShardedIndex: row past the fleet's end");
  }
}

std::size_t ShardedIndex::check_insert(std::span<const int> vector) const {
  if (!configured_) {
    throw std::logic_error("ShardedIndex: insert before configure");
  }
  check_vector(vector, dims_);
  return next_insert_target().second;
}

void ShardedIndex::check_remove(std::size_t global_row) const {
  check_row(global_row);
  if (free_rows_.count(global_row) != 0) {
    throw std::logic_error("ShardedIndex: row already removed");
  }
}

void ShardedIndex::check_update(std::size_t global_row,
                                std::span<const int> vector) const {
  check_row(global_row);
  check_vector(vector, dims_);
}

void ShardedIndex::record_live(std::size_t global_row, std::size_t length) {
  if (global_row == stored_) {
    ++stored_;
    dims_ = length;  // check_vector already pinned it once rows exist
  } else if (free_rows_.erase(global_row) == 0) {
    return;  // a live row overwritten in place
  }
  ++shard_live_[shard_of(global_row)];
}

void ShardedIndex::record_removed(std::size_t global_row) {
  free_rows_.insert(global_row);
  --shard_live_[shard_of(global_row)];
}

WriteReceipt ShardedIndex::do_insert(std::span<const int> vector) {
  // The target shard's own insert() reuses its lowest freed local slot
  // or appends, which is exactly to_local(global) — see
  // next_insert_target.
  const std::size_t global = check_insert(vector);
  WriteReceipt receipt = shards_[shard_of(global)]->insert(vector);
  record_live(global, vector.size());
  receipt.global_row = global;
  receipt.bank = shard_of(global);
  return receipt;
}

WriteReceipt ShardedIndex::do_remove(std::size_t global_row) {
  check_remove(global_row);
  WriteReceipt receipt =
      shards_[shard_of(global_row)]->remove(to_local(global_row));
  record_removed(global_row);
  receipt.global_row = global_row;
  receipt.bank = shard_of(global_row);
  return receipt;
}

WriteReceipt ShardedIndex::do_update(std::size_t global_row,
                                     std::span<const int> vector) {
  check_update(global_row, vector);
  WriteReceipt receipt =
      shards_[shard_of(global_row)]->update(to_local(global_row), vector);
  record_live(global_row, vector.size());
  receipt.global_row = global_row;
  receipt.bank = shard_of(global_row);
  return receipt;
}

void ShardedIndex::validate_backend_query(std::span<const int> query) const {
  // Reached only with live rows (validate_request rejects an empty fleet
  // with the typed EmptyIndex first), so dims_ is set.
  check_vector(query, dims_);
}

void ShardedIndex::validate_shard_request(std::size_t shard,
                                          const SearchRequest& request) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedIndex: no such shard");
  }
  if (shard_live_[shard] == 0) {
    throw EmptyIndex("ShardedIndex: shard has no live rows");
  }
  if (request.k == 0 || request.k > shard_live_[shard]) {
    throw std::invalid_argument("ShardedIndex: request.k out of range");
  }
  validate_backend_query(request.query);
}

std::size_t ShardedIndex::live_shard_count() const noexcept {
  std::size_t live_shards = 0;
  for (const std::size_t live : shard_live_) live_shards += live > 0 ? 1 : 0;
  return live_shards;
}

std::size_t ShardedIndex::shard_k(std::size_t shard,
                                  std::size_t k) const noexcept {
  const std::size_t live = shard_live_[shard];
  if (live == 0) return 0;
  // Overfetch one extra hit per shard so the merge always has a live
  // losing candidate for the margin — unless the whole fleet is
  // exhausted (k == total live), where the margin is +inf exactly as the
  // unsharded final round reports. At k == 1 the margin is taken against
  // the other shards' winners, so no shard overfetches.
  if (k == 1 || live_shard_count() == 1) return k;
  return std::min(k + 1, live);
}

SearchResponse ShardedIndex::from_shard(std::size_t shard,
                                        SearchResponse response) const {
  for (auto& hit : response.hits) {
    hit.global_row = to_global(shard, hit.global_row);
    hit.bank = shard;
  }
  return response;
}

SearchResponse ShardedIndex::search_core(std::span<const int> query,
                                         std::size_t k,
                                         std::uint64_t ordinal) const {
  // The scatter half: one hit list per shard in fleet coordinates (dead
  // shards left empty), each fetched at `ordinal` with the shard's own k.
  std::vector<std::vector<Hit>> parts(shards_.size());
  const auto run_shard = [&](std::size_t s) {
    // A fully deleted shard stops firing: no search, no noise draws —
    // its comparator streams are exactly those of a fleet that never
    // included it.
    const std::size_t sub_k = shard_k(s, k);
    if (sub_k == 0) return;
    const SearchRequest sub(std::vector<int>(query.begin(), query.end()),
                            sub_k);
    parts[s] = from_shard(s, shards_[s]->search_at(sub, ordinal)).hits;
  };
  if (live_shard_count() > 1) {
    // Shards fire at once; each shard's own row or bank loop then runs
    // inline (util::parallel's nesting rule).
    util::parallel_for(shards_.size(), run_shard);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) run_shard(s);
  }
  return {arch::merge_hits(parts, k)};
}

SearchResponse ShardedIndex::search_shard(std::size_t shard,
                                          const SearchRequest& request) {
  check_mutable("search_shard");
  // Validate before consuming a fleet ordinal, so a rejected request
  // leaves the noise-stream sequence untouched.
  validate_shard_request(shard, request);
  const std::uint64_t ordinal =
      request.ordinal ? *request.ordinal : query_serial();
  if (!request.ordinal) set_query_serial(ordinal + 1);
  return from_shard(shard, shards_[shard]->search_at(request, ordinal));
}

void ShardedIndex::rebuild_routing() {
  check_mutable("rebuild_routing");
  stored_ = 0;
  dims_ = 0;
  free_rows_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const AmIndex& shard = *shards_[s];
    const BackendState state = shard.backend_state();
    // Recovery replays configure into each shard, not through this
    // layer: adopt the encoding of any configured shard (they all agree
    // — a fleet configures as one).
    if (state.configured) {
      metric_ = state.metric;
      bits_ = state.bits;
      configured_ = true;
    }
    stored_ += shard.stored_count();
    shard_live_[s] = shard.live_count();
    if (shard.stored_count() > 0) dims_ = shard.dims();
    const auto mask = live_mask(state);
    for (std::size_t local = 0; local < mask.size(); ++local) {
      if (mask[local] == 0) free_rows_.insert(to_global(s, local));
    }
  }
}

}  // namespace ferex::serve
