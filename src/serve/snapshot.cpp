#include "serve/snapshot.hpp"

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "encode/serialize.hpp"
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

const char* fidelity_name(core::SearchFidelity fidelity) {
  return fidelity == core::SearchFidelity::kCircuit ? "circuit" : "nominal";
}

/// Reads one u8 (`width` 1) or u32 header field and checks it as it is
/// read: a value no build writes is malformed bytes at the field.
std::uint32_t header_field(encode::ByteReader& in, int width, std::uint32_t lo,
                           std::uint32_t hi, const char* name) {
  const std::uint64_t at = in.offset();
  const std::uint32_t value = width == 1 ? in.u8() : in.u32();
  if (value < lo || value > hi) {
    throw encode::CorruptSnapshot(
        at, std::string(name) + " " + std::to_string(value) + " out of range");
  }
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const AmIndex& index,
                                          std::uint64_t wal_watermark) {
  const BackendState state = index.backend_state();
  if (!state.configured) {
    throw std::logic_error("encode_snapshot: configure() first");
  }
  encode::ByteWriter payload;
  payload.u8(state.bank_rows == 0 ? kBackendEngine : kBackendBanked);
  payload.u8(state.fidelity == core::SearchFidelity::kCircuit ? 0 : 1);
  payload.u8(state.composite ? 1 : 0);
  payload.u32(static_cast<std::uint32_t>(state.metric));
  payload.u32(static_cast<std::uint32_t>(state.bits));
  payload.u64(wal_watermark);
  payload.u64(index.query_serial());
  if (state.bank_rows == 0) {
    put_engine_state(payload, state.banks.front());
  } else {
    payload.u64(state.bank_rows);
    payload.u64(0);  // reserved (was the banked query serial)
    payload.u64(state.banks.size());
    for (std::size_t b = 0; b < state.banks.size(); ++b) {
      payload.u64(b * state.bank_rows);  // the bank's first global row
      put_engine_state(payload, state.banks[b]);
    }
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

  // The whole payload is parsed before the index is touched.
  encode::ByteReader payload(payload_bytes, payload_size);
  BackendState state;
  state.configured = true;
  const std::uint32_t backend =
      header_field(payload, 1, kBackendEngine, kBackendBanked, "backend");
  state.fidelity = header_field(payload, 1, 0, 1, "fidelity") == 0
                       ? core::SearchFidelity::kCircuit
                       : core::SearchFidelity::kNominal;
  // Composite encodings are single-macro only.
  state.composite = header_field(payload, 1, 0, backend == kBackendEngine,
                                 "composite flag") != 0;
  state.metric = static_cast<csp::DistanceMetric>(header_field(
      payload, 4, 0,
      static_cast<std::uint32_t>(csp::DistanceMetric::kEuclideanSquared),
      "metric"));
  state.bits = static_cast<int>(header_field(payload, 4, 1, 8, "bits"));
  const std::uint64_t watermark = payload.u64();
  const std::uint64_t serving_serial = payload.u64();
  if (backend == kBackendEngine) {
    state.banks.push_back(get_engine_state(payload));
  } else {
    state.bank_rows = payload.u64();
    if (state.bank_rows == 0) {
      throw encode::CorruptSnapshot(payload.offset() - 8, "bank_rows 0");
    }
    (void)payload.u64();  // reserved: ignored
    const std::uint64_t bank_count = payload.u64();
    if (bank_count > payload.remaining()) {
      throw encode::CorruptSnapshot(payload.offset(), "bank count too large");
    }
    // Banked routing is arithmetic (bank = row / bank_rows): each offset
    // must be its bank's first row, and each bank must hold what store()
    // and insert() build — bank_rows rows, the last bank 1..bank_rows.
    for (std::uint64_t b = 0; b < bank_count; ++b) {
      if (payload.u64() != b * state.bank_rows) {
        throw SnapshotMismatch("bank " + std::to_string(b) +
                               " offset is not bank * bank_rows");
      }
      state.banks.push_back(get_engine_state(payload));
      const std::size_t rows = state.banks.back().database.size();
      if (b + 1 == bank_count ? (rows == 0 || rows > state.bank_rows)
                              : rows != state.bank_rows) {
        throw SnapshotMismatch("bank " + std::to_string(b) + " holds " +
                               std::to_string(rows) + " rows at bank_rows " +
                               std::to_string(state.bank_rows));
      }
    }
  }
  payload.expect_end();

  const BackendState own = index.backend_state();
  if ((state.bank_rows == 0) != (own.bank_rows == 0)) {
    throw SnapshotMismatch(state.bank_rows == 0
                               ? "snapshot is a single macro, index is banked"
                               : "snapshot is banked, index is a single macro");
  }
  if (state.fidelity != own.fidelity) {
    throw SnapshotMismatch(std::string("snapshot fidelity is ") +
                           fidelity_name(state.fidelity) + ", index is " +
                           fidelity_name(own.fidelity));
  }
  if (state.bank_rows != own.bank_rows) {
    throw SnapshotMismatch("snapshot bank_rows " +
                           std::to_string(state.bank_rows) +
                           ", index bank_rows " + std::to_string(own.bank_rows));
  }
  index.restore_state(std::move(state));
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
