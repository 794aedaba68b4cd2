// Sharded scatter-gather serving: one AmIndex over N independent shards.
//
// One AmIndex owns one engine or one banked array, so capacity is
// bounded by a single search fan-out and (async) a single write queue.
// ShardedIndex scales out: it owns N full AmIndex shards (EngineIndex
// or BankedIndex each) behind the same serving API, so callers —
// including DurableIndex-per-shard composition and the per-shard async
// front door (AsyncShardedIndex) — need no new protocol.
//
// Row routing is arithmetic, not a lookup table. Global rows split into
// `shard_block`-sized blocks dealt round-robin across shards:
//
//   blk      = global / shard_block
//   shard    = blk % shards
//   local    = (blk / shards) * shard_block + global % shard_block
//
// so every shard's local array fills densely front to back as the fleet
// grows (the globally-last block is the only partial one, and it is the
// highest block of its shard). insert() appends at global row
// stored_count() — which the formula sends to exactly the target
// shard's next local slot — or reuses the lowest freed global row,
// which per-shard monotonicity maps onto that shard's own lowest freed
// local slot. Receipts and hits always carry global rows; `Hit::bank`
// at this layer is the shard index.
//
// The fleet owns its routing state: the physical row count, the live
// rows per shard, the stored vector length and the freed-row set are
// fields here, and every write checks and advances them through one set
// of private helpers — whether it arrives through the synchronous do_*
// cores or through AsyncShardedIndex, which keeps no copy of its own.
// Validation is fleet-level too: store rows, insert and update vectors
// and queries are checked for length and the configured 2^bits
// alphabet against these fields, before any shard is touched, so a
// rejected write or store leaves the served fleet exactly as it was.
//
// Search is scatter-gather: with more than one live shard the query
// fans to every shard via util::parallel_for (each shard's own row or
// bank loop then runs inline under util::parallel's nesting rule; a
// shard searched alone keeps its own row or bank gate), each shard
// serves at the fleet's ordinal against its own comparator-noise
// stream (shard seeds are salted per shard; shard 0 keeps the base
// seed, so a 1-shard fleet is bit-identical to the unsharded index),
// and the per-shard responses, remapped to global rows, combine through
// arch::merge_hits — the head merge BankedAm runs over its banks (see
// there for the tie rule, the margins and the sole-part passthrough).
// Each shard fetches its winner alone at k == 1, so that margin is the
// gap to the best other shard winner (a flat array would also sense the
// winner's in-shard runner-up); for k > 1 each shard overfetches one,
// so at nominal fidelity the margins equal the flat index's round
// margins bit for bit. A sole live shard passes through, so the fleet
// is then bit-identical to that shard served alone at every k and both
// fidelities. Dead shards are skipped entirely (no search, no noise
// draws); EmptyIndex fires only when every shard is empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/ferex.hpp"
#include "serve/am_index.hpp"

namespace ferex::serve {

class AsyncShardedIndex;

/// Which backend each shard runs. Every shard is homogeneous — a fleet
/// mixes capacity by shard count, not by backend.
enum class ShardBackend {
  kEngine,  ///< one macro per shard (EngineIndex)
  kBanked,  ///< multi-macro banked array per shard (BankedIndex)
};

struct ShardedOptions {
  std::size_t shards = 4;       ///< fleet width (>= 1)
  std::size_t shard_block = 128;  ///< rows per routing block (>= 1)
  ShardBackend backend = ShardBackend::kEngine;
  /// Per-shard engine options. The seed is salted per shard (see
  /// shard_seed); shard 0 keeps the base seed so a 1-shard fleet is
  /// bit-identical to the unsharded index it wraps.
  core::FerexOptions engine{};
  /// Rows per bank inside each shard (kBanked backend only).
  std::size_t bank_rows = 128;
};

/// AmIndex over N independent shards: arithmetic row routing,
/// scatter-gather search with cross-shard margin reconstruction, and
/// the same guarded write path as every other backend.
class ShardedIndex final : public AmIndex {
 public:
  explicit ShardedIndex(ShardedOptions options = {});

  /// The engine seed shard `shard` runs with. Exposed so tests (and
  /// recovery tooling) can construct the exact per-shard reference
  /// index a shard must be bit-identical to.
  static std::uint64_t shard_seed(const ShardedOptions& options,
                                  std::size_t shard) noexcept {
    return options.engine.seed +
           0x9e3779b9ull * static_cast<std::uint64_t>(shard);
  }

  // -- routing (pure arithmetic; public for tests and durability) --
  std::size_t shard_of(std::size_t global_row) const noexcept {
    return (global_row / options_.shard_block) % options_.shards;
  }
  std::size_t to_local(std::size_t global_row) const noexcept {
    const std::size_t block = global_row / options_.shard_block;
    return (block / options_.shards) * options_.shard_block +
           global_row % options_.shard_block;
  }
  std::size_t to_global(std::size_t shard,
                        std::size_t local_row) const noexcept {
    const std::size_t block = local_row / options_.shard_block;
    return (block * options_.shards + shard) * options_.shard_block +
           local_row % options_.shard_block;
  }
  /// Rows the routing formula sends to `shard` out of a fleet of
  /// `total` rows — the shard-local stored count a dense fleet has.
  std::size_t rows_for_shard(std::size_t shard,
                             std::size_t total) const noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// A shard, for introspection and for durability layers that recover
  /// shards in place. The fleet's routing state does not see a direct
  /// shard mutation: call rebuild_routing() after one.
  AmIndex& shard(std::size_t s) { return *shards_.at(s); }
  const AmIndex& shard(std::size_t s) const { return *shards_.at(s); }

  /// Where the next insert() goes: {shard, global row}. Reuses the
  /// lowest freed global row before appending at stored_count(). For
  /// durability layers that must journal an op's destination before
  /// applying it.
  std::pair<std::size_t, std::size_t> next_insert_target() const;

  /// Freed (removed, not yet reused) global rows, lowest first.
  const std::set<std::size_t>& free_rows() const noexcept {
    return free_rows_;
  }

  /// Serves one request against a single shard only (rows remapped to
  /// global, bank = shard). Consumes one fleet ordinal unless the
  /// request pins one — single-shard traffic and scatter-gather traffic
  /// share one ordinal stream. The sync twin of
  /// AsyncShardedIndex::submit_shard.
  SearchResponse search_shard(std::size_t shard,
                              const SearchRequest& request);

  /// Re-derives the routing state from the shards' own contents, after
  /// a durability layer has recovered each shard in place. Guarded like
  /// a mutation. Callers check separately that the shards form a dense
  /// routing image (DurableShardedIndex throws SnapshotMismatch).
  void rebuild_routing();

  std::size_t stored_count() const noexcept override { return stored_; }
  std::size_t live_count() const noexcept override {
    return stored_ - free_rows_.size();
  }
  std::size_t dims() const noexcept override { return dims_; }
  /// The fan width at this layer: the number of shards. (Per-shard
  /// banks are an implementation detail of the shard backend.)
  std::size_t bank_count() const noexcept override {
    return shards_.size();
  }

  const ShardedOptions& options() const noexcept { return options_; }

  bool configured() const noexcept { return configured_; }
  csp::DistanceMetric metric() const noexcept { return metric_; }
  int bits() const noexcept { return bits_; }

 protected:
  void do_configure(csp::DistanceMetric metric, int bits) override;
  void do_store(const std::vector<std::vector<int>>& database) override;
  WriteReceipt do_insert(std::span<const int> vector) override;
  WriteReceipt do_remove(std::size_t global_row) override;
  WriteReceipt do_update(std::size_t global_row,
                         std::span<const int> vector) override;
  SearchResponse search_core(std::span<const int> query, std::size_t k,
                             std::uint64_t ordinal) const override;
  void validate_backend_query(std::span<const int> query) const override;

 private:
  /// AsyncShardedIndex claims the fleet (so direct sync use throws
  /// MutationWhileServed) and drives the routing state, validation and
  /// gather below instead of keeping copies, so async and sync serving
  /// make each of these decisions in one place.
  friend class AsyncShardedIndex;

  std::unique_ptr<AmIndex> make_shard(std::size_t shard) const;

  // -- the write path both front doors share --
  // Each check_* throws before anything moves; record_* advances the
  // routing fields once the target shard (or its queue) has taken the
  // write. check_insert returns the insert's target global row.
  void check_vector(std::span<const int> vector, std::size_t dims) const;
  void check_row(std::size_t global_row) const;
  std::size_t check_insert(std::span<const int> vector) const;
  void check_remove(std::size_t global_row) const;
  void check_update(std::size_t global_row, std::span<const int> vector) const;
  /// An insert or update made `global_row` live with a `length`-long row.
  void record_live(std::size_t global_row, std::size_t length);
  void record_removed(std::size_t global_row);

  /// Single-shard request validation against the routing fields: the
  /// shard index, typed EmptyIndex for a dead shard, k against its live
  /// rows, and the query.
  void validate_shard_request(std::size_t shard,
                              const SearchRequest& request) const;

  std::size_t live_shard_count() const noexcept;
  /// The k shard `shard` is searched at for a fleet-wide k: 0 for a dead
  /// shard (never searched); k itself at k == 1 or for a sole live shard
  /// (whose response passes through); else min(k + 1, live) so a losing
  /// candidate for the margin always survives the merge unless the
  /// fleet is exhausted.
  std::size_t shard_k(std::size_t shard, std::size_t k) const noexcept;

  /// One shard's response in fleet coordinates (global rows, bank = shard):
  /// what the sync path and the async ticket hand arch::merge_hits.
  SearchResponse from_shard(std::size_t shard, SearchResponse response) const;

  ShardedOptions options_;
  std::vector<std::unique_ptr<AmIndex>> shards_;
  // Routing state (see the file comment): exact as of every accepted
  // write, synchronous or async.
  std::size_t stored_ = 0;
  std::vector<std::size_t> shard_live_;
  std::size_t dims_ = 0;
  std::set<std::size_t> free_rows_;
  csp::DistanceMetric metric_ = csp::DistanceMetric::kHamming;
  int bits_ = 0;
  bool configured_ = false;
};

}  // namespace ferex::serve
