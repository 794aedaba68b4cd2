#include "serve/durable_sharded.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "encode/serialize.hpp"
#include "serve/snapshot.hpp"
#include "util/durable_file.hpp"
#include "util/failpoint.hpp"

namespace ferex::serve {

namespace {

constexpr char kManifestMagic[8] = {'F', 'E', 'R', 'E', 'X', 'S', 'H', 'M'};
constexpr std::uint32_t kManifestVersion = 1;

struct ShardManifest {
  std::uint64_t shards = 0;
  std::uint64_t shard_block = 0;
  std::uint8_t backend = 0;
  std::uint64_t bank_rows = 0;
  std::uint64_t query_serial = 0;
  std::vector<std::uint64_t> shard_rows;
};

std::vector<std::uint8_t> encode_manifest(const ShardManifest& manifest) {
  encode::ByteWriter out;
  out.bytes(reinterpret_cast<const std::uint8_t*>(kManifestMagic),
            sizeof kManifestMagic);
  out.u32(kManifestVersion);
  out.u64(manifest.shards);
  out.u64(manifest.shard_block);
  out.u8(manifest.backend);
  out.u64(manifest.bank_rows);
  out.u64(manifest.query_serial);
  for (const std::uint64_t rows : manifest.shard_rows) out.u64(rows);
  return out.take();
}

ShardManifest decode_manifest(const std::vector<std::uint8_t>& bytes) {
  encode::ByteReader in(bytes);
  const auto magic = in.bytes(sizeof kManifestMagic);
  if (std::memcmp(magic.data(), kManifestMagic, sizeof kManifestMagic) != 0) {
    throw SnapshotMismatch("manifest magic");
  }
  const std::uint32_t version = in.u32();
  if (version != kManifestVersion) {
    throw SnapshotMismatch("manifest version " + std::to_string(version));
  }
  ShardManifest manifest;
  manifest.shards = in.u64();
  manifest.shard_block = in.u64();
  manifest.backend = in.u8();
  manifest.bank_rows = in.u64();
  manifest.query_serial = in.u64();
  // One u64 per shard must remain before anything is reserved for them:
  // a damaged shard count must not become a huge allocation.
  if (in.remaining() % 8 != 0 || manifest.shards != in.remaining() / 8) {
    throw encode::CorruptSnapshot(in.offset(),
                                  "manifest shard count does not match its "
                                  "per-shard rows");
  }
  manifest.shard_rows.reserve(manifest.shards);
  for (std::uint64_t s = 0; s < manifest.shards; ++s) {
    manifest.shard_rows.push_back(in.u64());
  }
  return manifest;
}

void check_topology(const ShardManifest& manifest,
                    const ShardedOptions& options) {
  if (manifest.shards != options.shards) {
    throw SnapshotMismatch(
        "manifest shard count " + std::to_string(manifest.shards) +
        ", fleet has " + std::to_string(options.shards));
  }
  if (manifest.shard_block != options.shard_block) {
    throw SnapshotMismatch(
        "manifest shard_block " + std::to_string(manifest.shard_block) +
        ", fleet has " + std::to_string(options.shard_block));
  }
  if (manifest.backend != static_cast<std::uint8_t>(options.backend)) {
    throw SnapshotMismatch("manifest shard backend differs from fleet");
  }
  if (options.backend == ShardBackend::kBanked &&
      manifest.bank_rows != options.bank_rows) {
    throw SnapshotMismatch(
        "manifest bank_rows " + std::to_string(manifest.bank_rows) +
        ", fleet has " + std::to_string(options.bank_rows));
  }
}

}  // namespace

DurableShardedIndex::DurableShardedIndex(ShardedIndex& fleet, std::string dir,
                                         DurableOptions options)
    : fleet_(fleet), dir_(std::move(dir)), options_(options) {
  // Per-shard compaction triggers would rewrite a shard's local layout
  // behind the fleet's routing bookkeeping; fleet-level compaction is a
  // checkpoint-shaped operation this layer does not plumb yet. Refuse
  // the trigger before touching the directory, so a caller who asked
  // for compaction is told it will not happen.
  if (options_.compact_free_fraction != 0.0) {
    throw std::invalid_argument(
        "DurableShardedIndex: compact_free_fraction must be 0 (per-shard "
        "compaction would move rows behind the fleet's routing)");
  }

  std::vector<std::uint8_t> bytes;
  const bool have_manifest = util::read_file(manifest_path(), bytes);
  ShardManifest manifest;
  if (have_manifest) {
    manifest = decode_manifest(bytes);
    check_topology(manifest, fleet_.options());
  } else {
    for (std::size_t s = 0; s < fleet_.shard_count(); ++s) {
      std::vector<std::uint8_t> probe;
      if (util::read_file(shard_dir(s) + "/snapshot.ferex", probe) ||
          util::read_file(shard_dir(s) + "/wal.ferex", probe)) {
        throw SnapshotMismatch("shard state without a manifest: " +
                               shard_dir(s));
      }
    }
    // Cold start: manifest first. Every later crash point — between
    // directory creation, WAL creation, or mid-journal — then recovers
    // through the manifest path above.
    write_manifest();
  }

  shards_.reserve(fleet_.shard_count());
  for (std::size_t s = 0; s < fleet_.shard_count(); ++s) {
    util::ensure_directory(shard_dir(s));
    // Each shard recovers through the per-index protocol: snapshot
    // install, torn-tail repair, watermark-skip replay — in shard-local
    // coordinates throughout.
    shards_.push_back(std::make_unique<DurableIndex>(fleet_.shard(s),
                                                     shard_dir(s), options_));
  }
  fleet_.rebuild_routing();

  // The reassembled fleet must be a dense routing image: the routing
  // formula fixes how many rows each shard holds for the recovered
  // total, so a lost, stale, or cross-wired shard directory shows up as
  // a count that no dense fleet could produce.
  const std::size_t total = fleet_.stored_count();
  for (std::size_t s = 0; s < fleet_.shard_count(); ++s) {
    const std::size_t stored = fleet_.shard(s).stored_count();
    if (stored != fleet_.rows_for_shard(s, total)) {
      throw SnapshotMismatch(
          "recovered shard " + std::to_string(s) + " holds " +
          std::to_string(stored) + " rows, routing expects " +
          std::to_string(fleet_.rows_for_shard(s, total)));
    }
  }
  if (have_manifest) fleet_.set_query_serial(manifest.query_serial);
}

void DurableShardedIndex::assert_sync_ownership() {
  // The guarded serial setter runs check_mutable and changes nothing:
  // it throws the typed MutationWhileServed while an async session owns
  // the fleet, before this mutation journals anything.
  fleet_.set_query_serial(fleet_.query_serial());
}

void DurableShardedIndex::configure(csp::DistanceMetric metric, int bits) {
  assert_sync_ownership();
  fleet_.configure(metric, bits);
  for (auto& shard : shards_) {
    shard->wal().append_configure(metric, bits, /*composite=*/false);
  }
  write_manifest();
}

void DurableShardedIndex::store(const std::vector<std::vector<int>>& database) {
  assert_sync_ownership();
  // Apply first: the fleet validates every row before touching any
  // shard, so a rejected store journals nothing anywhere.
  fleet_.store(database);
  std::vector<std::vector<std::vector<int>>> slices(fleet_.shard_count());
  for (std::size_t g = 0; g < database.size(); ++g) {
    slices[fleet_.shard_of(g)].push_back(database[g]);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (slices[s].empty()) {
      // store() left this shard fresh, and no WAL record can empty a
      // shard (configure keeps rows): the checkpoint's snapshot records
      // it instead, as DurableIndex::compact does.
      shards_[s]->checkpoint();
      continue;
    }
    // Journal the realized per-shard image: the reset that store()
    // performed (configure) plus the shard's slice. Replaying a shard
    // log reproduces exactly what the live shard now holds.
    shards_[s]->wal().append_configure(fleet_.metric(), fleet_.bits(),
                                       /*composite=*/false);
    shards_[s]->wal().append_store(slices[s]);
  }
  write_manifest();
}

WriteReceipt DurableShardedIndex::insert(std::span<const int> vector) {
  assert_sync_ownership();
  WriteReceipt receipt = fleet_.insert(vector);
  // receipt.bank is the shard the fleet routed to; the shard's own
  // replay of this record reuses its lowest freed local slot, which is
  // exactly where the live insert landed.
  shards_[receipt.bank]->wal().append_insert(vector);
  return receipt;
}

WriteReceipt DurableShardedIndex::remove(std::size_t global_row) {
  assert_sync_ownership();
  WriteReceipt receipt = fleet_.remove(global_row);
  shards_[receipt.bank]->wal().append_remove(fleet_.to_local(global_row));
  return receipt;
}

WriteReceipt DurableShardedIndex::update(std::size_t global_row,
                                         std::span<const int> vector) {
  assert_sync_ownership();
  WriteReceipt receipt = fleet_.update(global_row, vector);
  shards_[receipt.bank]->wal().append_update(fleet_.to_local(global_row),
                                             vector);
  return receipt;
}

void DurableShardedIndex::checkpoint() {
  assert_sync_ownership();
  // Each shard checkpoint is crash-safe on its own (atomic snapshot,
  // watermark-skip replay), and a checkpoint changes no counts — so a
  // crash between shards still recovers a dense image.
  for (auto& shard : shards_) shard->checkpoint();
  write_manifest();
}

std::vector<Wal*> DurableShardedIndex::shard_wals() {
  std::vector<Wal*> wals;
  wals.reserve(shards_.size());
  for (auto& shard : shards_) wals.push_back(&shard->wal());
  return wals;
}

void DurableShardedIndex::write_manifest() {
  ShardManifest manifest;
  manifest.shards = fleet_.options().shards;
  manifest.shard_block = fleet_.options().shard_block;
  manifest.backend = static_cast<std::uint8_t>(fleet_.options().backend);
  manifest.bank_rows = fleet_.options().bank_rows;
  manifest.query_serial = fleet_.query_serial();
  manifest.shard_rows.reserve(fleet_.shard_count());
  for (std::size_t s = 0; s < fleet_.shard_count(); ++s) {
    manifest.shard_rows.push_back(fleet_.shard(s).stored_count());
  }
  const auto bytes = encode_manifest(manifest);
  util::failpoint_hit("sharded.manifest.before_write");
  util::atomic_write_file(manifest_path(), bytes);
  util::failpoint_hit("sharded.manifest.after_write");
}

}  // namespace ferex::serve
