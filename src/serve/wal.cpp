#include "serve/wal.hpp"

#include <cstring>

#include "encode/serialize.hpp"
#include "util/failpoint.hpp"

namespace ferex::serve {

namespace {

constexpr char kMagic[8] = {'F', 'E', 'R', 'E', 'X', 'W', 'A', 'L'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = sizeof kMagic + 4;
constexpr std::size_t kFrameBytes = 8;  // u32 length + u32 crc

void put_vector(encode::ByteWriter& out, std::span<const int> vector) {
  out.u64(vector.size());
  for (const int v : vector) {
    out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(v)));
  }
}

std::vector<int> get_vector(encode::ByteReader& in) {
  const std::uint64_t dims = in.u64();
  // Each element occupies 4 bytes; an insane count from a corrupt record
  // must fail before any allocation, not OOM.
  if (dims > in.remaining() / 4) {
    throw encode::CorruptSnapshot(in.offset(), "vector length too large");
  }
  std::vector<int> vector(static_cast<std::size_t>(dims));
  for (auto& v : vector) {
    v = static_cast<int>(static_cast<std::int32_t>(in.u32()));
  }
  return vector;
}

std::vector<std::uint8_t> encode_payload(const WalRecord& record) {
  encode::ByteWriter out;
  out.u64(record.seq);
  out.u8(static_cast<std::uint8_t>(record.op));
  switch (record.op) {
    case WalOp::kConfigure:
      out.u8(record.composite ? 1 : 0);
      out.u32(static_cast<std::uint32_t>(record.metric));
      out.u32(static_cast<std::uint32_t>(record.bits));
      break;
    case WalOp::kStore:
      out.u64(record.vectors.size());
      for (const auto& row : record.vectors) put_vector(out, row);
      break;
    case WalOp::kInsert:
      put_vector(out, record.vectors.front());
      break;
    case WalOp::kRemove:
      out.u64(record.row);
      break;
    case WalOp::kUpdate:
      out.u64(record.row);
      put_vector(out, record.vectors.front());
      break;
  }
  return out.take();
}

WalRecord decode_payload(encode::ByteReader& in) {
  WalRecord record;
  record.seq = in.u64();
  const std::uint8_t op = in.u8();
  switch (op) {
    case static_cast<std::uint8_t>(WalOp::kConfigure): {
      record.op = WalOp::kConfigure;
      record.composite = in.u8() != 0;
      record.metric = static_cast<csp::DistanceMetric>(in.u32());
      record.bits = static_cast<int>(in.u32());
      break;
    }
    case static_cast<std::uint8_t>(WalOp::kStore): {
      record.op = WalOp::kStore;
      const std::uint64_t rows = in.u64();
      if (rows > in.remaining()) {
        throw encode::CorruptSnapshot(in.offset(), "row count too large");
      }
      record.vectors.reserve(static_cast<std::size_t>(rows));
      for (std::uint64_t r = 0; r < rows; ++r) {
        record.vectors.push_back(get_vector(in));
      }
      break;
    }
    case static_cast<std::uint8_t>(WalOp::kInsert): {
      record.op = WalOp::kInsert;
      record.vectors.push_back(get_vector(in));
      break;
    }
    case static_cast<std::uint8_t>(WalOp::kRemove): {
      record.op = WalOp::kRemove;
      record.row = static_cast<std::size_t>(in.u64());
      break;
    }
    case static_cast<std::uint8_t>(WalOp::kUpdate): {
      record.op = WalOp::kUpdate;
      record.row = static_cast<std::size_t>(in.u64());
      record.vectors.push_back(get_vector(in));
      break;
    }
    default:
      throw encode::CorruptSnapshot(in.offset(), "unknown WAL opcode");
  }
  in.expect_end();
  return record;
}

}  // namespace

WalReadResult read_wal(const std::string& path) {
  WalReadResult result;
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(path, bytes)) return result;
  if (bytes.empty()) return result;
  if (bytes.size() < kHeaderBytes) {
    // The header itself was torn mid-write: nothing valid to keep.
    result.torn_tail = true;
    return result;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CorruptLog(0, "bad magic");
  }
  encode::ByteReader header(bytes.data() + sizeof kMagic, 4);
  const std::uint32_t version = header.u32();
  if (version != kVersion) {
    throw CorruptLog(sizeof kMagic,
                     "unsupported version " + std::to_string(version));
  }
  std::size_t offset = kHeaderBytes;
  result.valid_bytes = offset;
  std::uint64_t prev_seq = 0;
  bool have_prev = false;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < kFrameBytes) {
      result.torn_tail = true;
      break;
    }
    encode::ByteReader frame(bytes.data() + offset, kFrameBytes);
    const std::uint32_t length = frame.u32();
    const std::uint32_t stored_crc = frame.u32();
    if (length > remaining - kFrameBytes) {
      // The length header landed but the payload did not — a torn final
      // append. (A corrupt mid-log length that points past the end is
      // indistinguishable and recovers the same way.)
      result.torn_tail = true;
      break;
    }
    // The CRC covers the length bytes too, so a flipped length that
    // still fits inside the file fails here instead of desynchronizing
    // the record stream.
    const std::uint32_t crc =
        encode::crc32(bytes.data() + offset + 8, length,
                      encode::crc32(bytes.data() + offset, 4));
    const bool last_record = offset + kFrameBytes + length == bytes.size();
    if (crc != stored_crc) {
      if (last_record) {
        result.torn_tail = true;
        break;
      }
      throw CorruptLog(offset, "record CRC mismatch");
    }
    WalRecord record;
    try {
      encode::ByteReader payload(bytes.data() + offset + kFrameBytes, length);
      record = decode_payload(payload);
    } catch (const encode::CorruptSnapshot& error) {
      // CRC-valid but unparseable — real corruption, tail or not.
      throw CorruptLog(offset, error.what());
    }
    if (have_prev && record.seq != prev_seq + 1) {
      throw CorruptLog(offset, "sequence gap (" + std::to_string(prev_seq) +
                                   " -> " + std::to_string(record.seq) + ")");
    }
    prev_seq = record.seq;
    have_prev = true;
    offset += kFrameBytes + length;
    result.valid_bytes = offset;
    result.records.push_back(std::move(record));
  }
  return result;
}

WalReadResult repair_wal(const std::string& path) {
  WalReadResult scan = read_wal(path);
  if (scan.torn_tail) util::truncate_file(path, scan.valid_bytes);
  return scan;
}

Wal::Wal(std::string path, util::SyncPolicy policy, std::uint64_t next_seq)
    : file_(path, policy), next_seq_(next_seq) {
  if (file_.size() == 0) {
    encode::ByteWriter header;
    header.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof kMagic);
    header.u32(kVersion);
    file_.append(header.data().data(), header.size());
  }
}

std::uint64_t Wal::append_record(const WalRecord& record) {
  const std::vector<std::uint8_t> payload = encode_payload(record);
  encode::ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  // CRC over the length bytes and the payload (see read_wal).
  encode::ByteWriter length_bytes;
  length_bytes.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(encode::crc32(payload, encode::crc32(length_bytes.data())));
  frame.bytes(payload.data(), payload.size());
  util::failpoint_hit("wal.append.before_record");
  file_.append(frame.data().data(), frame.size());
  util::failpoint_hit("wal.append.after_record");
  return next_seq_++;
}

std::uint64_t Wal::append_configure(csp::DistanceMetric metric, int bits,
                                    bool composite) {
  WalRecord record;
  record.seq = next_seq_;
  record.op = WalOp::kConfigure;
  record.metric = metric;
  record.bits = bits;
  record.composite = composite;
  return append_record(record);
}

std::uint64_t Wal::append_store(
    const std::vector<std::vector<int>>& database) {
  WalRecord record;
  record.seq = next_seq_;
  record.op = WalOp::kStore;
  record.vectors = database;
  return append_record(record);
}

std::uint64_t Wal::append_insert(std::span<const int> vector) {
  WalRecord record;
  record.seq = next_seq_;
  record.op = WalOp::kInsert;
  record.vectors.emplace_back(vector.begin(), vector.end());
  return append_record(record);
}

std::uint64_t Wal::append_remove(std::size_t global_row) {
  WalRecord record;
  record.seq = next_seq_;
  record.op = WalOp::kRemove;
  record.row = global_row;
  return append_record(record);
}

std::uint64_t Wal::append_update(std::size_t global_row,
                                 std::span<const int> vector) {
  WalRecord record;
  record.seq = next_seq_;
  record.op = WalOp::kUpdate;
  record.row = global_row;
  record.vectors.emplace_back(vector.begin(), vector.end());
  return append_record(record);
}

}  // namespace ferex::serve
