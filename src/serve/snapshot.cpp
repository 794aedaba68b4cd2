#include "serve/snapshot.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>

#include "encode/serialize.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "util/durable_file.hpp"

namespace ferex::serve {

namespace {

constexpr char kMagic[8] = {'F', 'E', 'R', 'E', 'X', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kEnvelopeBytes = sizeof kMagic + 4 + 4 + 8;

constexpr std::uint8_t kBackendEngine = 1;
constexpr std::uint8_t kBackendBanked = 2;

void put_engine_state(encode::ByteWriter& out,
                      const core::FerexEngine::EngineState& state) {
  const std::size_t rows = state.database.size();
  const std::size_t dims = rows == 0 ? 0 : state.database.front().size();
  out.u64(rows);
  out.u64(dims);
  for (const auto& row : state.database) {
    for (const int v : row) {
      out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
    }
  }
  for (const auto flag : state.live) out.u8(flag);
  out.u64(0);  // reserved (was the per-engine query serial)
  for (const auto lane : state.rng.s) out.u64(lane);
  out.f64(state.rng.cached_gaussian);
  out.u8(state.rng.has_cached_gaussian ? 1 : 0);
  out.u64(state.vth_offsets.size());
  for (const double v : state.vth_offsets) out.f64(v);
  for (const double r : state.resistances) out.f64(r);
}

core::FerexEngine::EngineState get_engine_state(encode::ByteReader& in) {
  core::FerexEngine::EngineState state;
  const std::uint64_t rows = in.u64();
  const std::uint64_t dims = in.u64();
  if (rows > in.remaining() || (rows > 0 && dims > in.remaining() / 4)) {
    throw encode::CorruptSnapshot(in.offset(), "database shape too large");
  }
  if (rows > 0 && dims == 0) {
    throw encode::CorruptSnapshot(in.offset(), "zero-dimension database");
  }
  state.database.reserve(static_cast<std::size_t>(rows));
  for (std::uint64_t r = 0; r < rows; ++r) {
    std::vector<int> row(static_cast<std::size_t>(dims));
    for (auto& v : row) {
      v = static_cast<int>(static_cast<std::int32_t>(in.u32()));
    }
    state.database.push_back(std::move(row));
  }
  state.live.resize(static_cast<std::size_t>(rows));
  for (auto& flag : state.live) flag = in.u8();
  (void)in.u64();  // reserved: ignored
  for (auto& lane : state.rng.s) lane = in.u64();
  state.rng.cached_gaussian = in.f64();
  state.rng.has_cached_gaussian = in.u8() != 0;
  const std::uint64_t devices = in.u64();
  if (devices > in.remaining() / 8) {
    throw encode::CorruptSnapshot(in.offset(), "device count too large");
  }
  state.vth_offsets.resize(static_cast<std::size_t>(devices));
  for (auto& v : state.vth_offsets) v = in.f64();
  state.resistances.resize(static_cast<std::size_t>(devices));
  for (auto& r : state.resistances) r = in.f64();
  return state;
}

std::uint8_t fidelity_code(core::SearchFidelity fidelity) {
  return fidelity == core::SearchFidelity::kCircuit ? 0 : 1;
}

const char* fidelity_name(std::uint8_t code) {
  return code == 0 ? "circuit" : "nominal";
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const AmIndex& index,
                                          std::uint64_t wal_watermark) {
  encode::ByteWriter payload;
  if (const auto* engine_index = dynamic_cast<const EngineIndex*>(&index)) {
    const core::FerexEngine& engine = engine_index->engine();
    if (!engine.configured()) {
      throw std::logic_error("encode_snapshot: configure() first");
    }
    payload.u8(kBackendEngine);
    payload.u8(fidelity_code(engine.options().fidelity));
    payload.u8(engine.codec() != nullptr ? 1 : 0);
    payload.u32(static_cast<std::uint32_t>(engine.metric()));
    payload.u32(static_cast<std::uint32_t>(engine.bits()));
    payload.u64(wal_watermark);
    payload.u64(index.query_serial());
    put_engine_state(payload, engine.snapshot_state());
  } else if (const auto* banked_index =
                 dynamic_cast<const BankedIndex*>(&index)) {
    const arch::BankedAm& banked = banked_index->banked();
    if (!banked.configured()) {
      throw std::logic_error("encode_snapshot: configure() first");
    }
    payload.u8(kBackendBanked);
    payload.u8(fidelity_code(banked.options().engine.fidelity));
    payload.u8(0);  // composite is engine-only
    payload.u32(static_cast<std::uint32_t>(banked.metric()));
    payload.u32(static_cast<std::uint32_t>(banked.bits()));
    payload.u64(wal_watermark);
    payload.u64(index.query_serial());
    const arch::BankedAm::BankedState state = banked.snapshot_state();
    const std::size_t bank_rows = banked.options().bank_rows;
    payload.u64(bank_rows);
    payload.u64(0);  // reserved (was the banked query serial)
    payload.u64(state.banks.size());
    for (std::size_t b = 0; b < state.banks.size(); ++b) {
      payload.u64(b * bank_rows);  // the bank's first global row
      put_engine_state(payload, state.banks[b]);
    }
  } else {
    throw std::invalid_argument("encode_snapshot: unsupported backend");
  }

  encode::ByteWriter out;
  out.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic);
  out.u32(kVersion);
  out.u32(encode::crc32(payload.data()));
  out.u64(payload.size());
  out.bytes(payload.data().data(), payload.size());
  return out.take();
}

std::uint64_t install_snapshot(AmIndex& index,
                               const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kEnvelopeBytes) {
    throw encode::CorruptSnapshot(bytes.size(), "truncated envelope");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw encode::CorruptSnapshot(0, "bad magic");
  }
  encode::ByteReader envelope(bytes.data() + sizeof kMagic, 4 + 4 + 8);
  const std::uint32_t version = envelope.u32();
  if (version != kVersion) {
    throw encode::CorruptSnapshot(sizeof kMagic, "unsupported version " +
                                                     std::to_string(version));
  }
  const std::uint32_t stored_crc = envelope.u32();
  const std::uint64_t payload_size = envelope.u64();
  if (payload_size != bytes.size() - kEnvelopeBytes) {
    throw encode::CorruptSnapshot(sizeof kMagic + 8, "payload size mismatch");
  }
  const std::uint8_t* payload_bytes = bytes.data() + kEnvelopeBytes;
  if (encode::crc32(payload_bytes, payload_size) != stored_crc) {
    throw encode::CorruptSnapshot(sizeof kMagic + 4, "checksum mismatch");
  }

  encode::ByteReader payload(payload_bytes, payload_size);
  const std::uint8_t backend = payload.u8();
  const std::uint8_t fidelity = payload.u8();
  const bool composite = payload.u8() != 0;
  const auto metric = static_cast<csp::DistanceMetric>(payload.u32());
  const int bits = static_cast<int>(payload.u32());
  const std::uint64_t watermark = payload.u64();
  const std::uint64_t serving_serial = payload.u64();

  if (auto* engine_index = dynamic_cast<EngineIndex*>(&index)) {
    if (backend != kBackendEngine) {
      throw SnapshotMismatch("snapshot is banked, index is a single macro");
    }
    const std::uint8_t own =
        fidelity_code(engine_index->engine().options().fidelity);
    if (fidelity != own) {
      throw SnapshotMismatch(std::string("snapshot fidelity is ") +
                             fidelity_name(fidelity) + ", index is " +
                             fidelity_name(own));
    }
    if (composite) {
      engine_index->configure_composite(metric, bits);
    } else {
      engine_index->configure(metric, bits);
    }
    auto state = get_engine_state(payload);
    payload.expect_end();
    engine_index->engine().restore_state(std::move(state));
  } else if (auto* banked_index = dynamic_cast<BankedIndex*>(&index)) {
    if (backend != kBackendBanked) {
      throw SnapshotMismatch("snapshot is a single macro, index is banked");
    }
    arch::BankedAm& banked = banked_index->banked();
    const std::uint8_t own = fidelity_code(banked.options().engine.fidelity);
    if (fidelity != own) {
      throw SnapshotMismatch(std::string("snapshot fidelity is ") +
                             fidelity_name(fidelity) + ", index is " +
                             fidelity_name(own));
    }
    banked_index->configure(metric, bits);
    const std::uint64_t bank_rows = payload.u64();
    if (bank_rows != banked.options().bank_rows) {
      throw SnapshotMismatch(
          "snapshot bank_rows " + std::to_string(bank_rows) +
          ", index bank_rows " + std::to_string(banked.options().bank_rows));
    }
    (void)payload.u64();  // reserved: ignored
    arch::BankedAm::BankedState state;
    const std::uint64_t bank_count = payload.u64();
    if (bank_count > payload.remaining()) {
      throw encode::CorruptSnapshot(payload.offset(), "bank count too large");
    }
    // Banked routing is arithmetic (bank = row / bank_rows): each offset
    // must be its bank's first row, and each bank must hold what store()
    // and insert() build — bank_rows rows, the last bank 1..bank_rows.
    for (std::uint64_t b = 0; b < bank_count; ++b) {
      if (payload.u64() != b * bank_rows) {
        throw SnapshotMismatch("bank " + std::to_string(b) +
                               " offset is not bank * bank_rows");
      }
      state.banks.push_back(get_engine_state(payload));
      const std::size_t rows = state.banks.back().database.size();
      if (b + 1 == bank_count ? (rows == 0 || rows > bank_rows)
                              : rows != bank_rows) {
        throw SnapshotMismatch("bank " + std::to_string(b) + " holds " +
                               std::to_string(rows) + " rows at bank_rows " +
                               std::to_string(bank_rows));
      }
    }
    payload.expect_end();
    banked.restore_state(std::move(state));
  } else {
    throw std::invalid_argument("install_snapshot: unsupported backend");
  }
  index.set_query_serial(serving_serial);
  return watermark;
}

void save_snapshot(const AmIndex& index, const std::string& path,
                   std::uint64_t wal_watermark) {
  util::atomic_write_file(path, encode_snapshot(index, wal_watermark));
}

std::uint64_t load_snapshot(AmIndex& index, const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(path, bytes)) {
    throw std::system_error(ENOENT, std::generic_category(),
                            "load_snapshot: " + path);
  }
  return install_snapshot(index, bytes);
}

}  // namespace ferex::serve
