// Tests for the durability layer: versioned snapshots, the write-ahead
// log, recovery, and crash-point fault injection. The load-bearing
// claims:
//
//   * a snapshot round trip is bit-identical — the restored index serves
//     the same currents and hits AND its variation-RNG stream continues
//     exactly, so later inserts land identically too;
//   * any malformed snapshot or WAL byte is a typed error naming the
//     offset (never UB, never a silently wrong index), while a torn WAL
//     tail — the signature of a crash mid-append — recovers by
//     truncation;
//   * recovery (snapshot + WAL replay past the watermark) reproduces the
//     uninterrupted run bit for bit, on both backends, both fidelities,
//     through the sync and async front doors, with a crash injected at
//     every record boundary — including a literal kill-the-child test;
//   * tombstone compaction is bit-identical to a fresh store() of the
//     survivors.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "arch/banked_am.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"
#include "encode/serialize.hpp"
#include "serve/async_index.hpp"
#include "serve/banked_index.hpp"
#include "serve/durable.hpp"
#include "serve/engine_index.hpp"
#include "serve/snapshot.hpp"
#include "serve/wal.hpp"
#include "util/durable_file.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace ferex {
namespace {

using core::SearchFidelity;
using csp::DistanceMetric;

void expect_identical(const serve::SearchResponse& a,
                      const serve::SearchResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].global_row, b.hits[i].global_row);
    EXPECT_EQ(a.hits[i].bank, b.hits[i].bank);
    EXPECT_EQ(a.hits[i].sensed_current_a, b.hits[i].sensed_current_a);
    EXPECT_EQ(a.hits[i].margin_a, b.hits[i].margin_a);
    EXPECT_EQ(a.hits[i].nominal_distance, b.hits[i].nominal_distance);
  }
}

/// mkdtemp-backed scratch directory, removed (recursively) on scope exit.
class ScopedDir {
 public:
  ScopedDir() {
    std::string pattern = ::testing::TempDir() + "ferex_durable_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    const char* made = ::mkdtemp(buffer.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : pattern;
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

enum class Backend { kEngine, kBanked };

/// A fresh, unconfigured index of the given shape — what a restart
/// constructs before recovery/installation runs.
std::unique_ptr<serve::AmIndex> make_empty(Backend backend,
                                           SearchFidelity fidelity) {
  if (backend == Backend::kEngine) {
    core::FerexOptions opt;
    opt.fidelity = fidelity;
    return std::make_unique<serve::EngineIndex>(opt);
  }
  arch::BankedOptions opt;
  opt.bank_rows = 3;
  opt.engine.fidelity = fidelity;
  return std::make_unique<serve::BankedIndex>(opt);
}

std::unique_ptr<serve::AmIndex> make_index(
    Backend backend, SearchFidelity fidelity,
    const std::vector<std::vector<int>>& db) {
  auto index = make_empty(backend, fidelity);
  index->configure(DistanceMetric::kHamming, 2);
  index->store(db);
  return index;
}

/// Asserts two indexes are in bit-identical serving state: same counts,
/// same hits/currents for a query sweep, and — the stronger claim — the
/// same variation-RNG position, proven by a continued insert landing
/// identically and serving identically afterwards.
void expect_same_state(serve::AmIndex& a, serve::AmIndex& b,
                       const std::vector<std::vector<int>>& queries,
                       const std::vector<int>& probe) {
  ASSERT_EQ(a.stored_count(), b.stored_count());
  ASSERT_EQ(a.live_count(), b.live_count());
  EXPECT_EQ(a.query_serial(), b.query_serial());
  if (a.live_count() == 0) return;
  const std::size_t k = std::min<std::size_t>(3, a.live_count());
  for (const auto& q : queries) {
    expect_identical(a.search({q, k, std::nullopt}),
                     b.search({q, k, std::nullopt}));
  }
  const auto receipt_a = a.insert(probe);
  const auto receipt_b = b.insert(probe);
  EXPECT_EQ(receipt_a.global_row, receipt_b.global_row);
  expect_identical(a.search({queries.front(), k, std::nullopt}),
                   b.search({queries.front(), k, std::nullopt}));
}

// --------------------------------------------------------------- rng --

TEST(RngStateT, RoundTripResumesTheExactStream) {
  util::Rng rng(42);
  for (int i = 0; i < 17; ++i) rng();
  // An odd gaussian count leaves the Box-Muller cache engaged — the
  // restored stream must continue mid-pair.
  for (int i = 0; i < 3; ++i) rng.gaussian();

  util::Rng resumed(0);
  resumed.set_state(rng.state());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng(), resumed());
    EXPECT_EQ(rng.gaussian(), resumed.gaussian());
    EXPECT_EQ(rng.uniform(), resumed.uniform());
  }
}

TEST(RngStateT, AllZeroLanesAreRejected) {
  // xoshiro256++ has the all-zero fixed point (every output 0 forever);
  // a corrupt snapshot must not wedge the generator there.
  util::Rng rng(7);
  rng.set_state(util::Rng::State{{0, 0, 0, 0}, 0.0, false});
  std::uint64_t accumulated = 0;
  for (int i = 0; i < 8; ++i) accumulated |= rng();
  EXPECT_NE(accumulated, 0u);
}

// ------------------------------------------------------ durable_file --

TEST(DurableFileT, AtomicWriteCreatesAndReplaces) {
  ScopedDir dir;
  const std::string path = dir.path() + "/blob";
  const std::vector<std::uint8_t> first = {1, 2, 3};
  const std::vector<std::uint8_t> second = {9, 8, 7, 6};

  util::atomic_write_file(path, first);
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(util::read_file(path, read));
  EXPECT_EQ(read, first);

  // Rename-over-existing is the checkpoint's normal case.
  util::atomic_write_file(path, second);
  ASSERT_TRUE(util::read_file(path, read));
  EXPECT_EQ(read, second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableFileT, ReadFileMissingReturnsFalse) {
  ScopedDir dir;
  std::vector<std::uint8_t> out = {42};
  EXPECT_FALSE(util::read_file(dir.path() + "/absent", out));
  EXPECT_EQ(out, std::vector<std::uint8_t>{42});
}

TEST(DurableFileT, AppendAndTruncateRoundTrip) {
  ScopedDir dir;
  const std::string path = dir.path() + "/log";
  const std::vector<std::uint8_t> chunk = {1, 2, 3, 4};
  {
    util::AppendFile file(path, util::SyncPolicy::kEveryAppend);
    file.append(chunk.data(), chunk.size());
    file.append(chunk.data(), chunk.size());
    EXPECT_EQ(file.size(), 8u);
  }
  {
    // Reopening appends at the end, never truncates.
    util::AppendFile file(path, util::SyncPolicy::kOnClose);
    EXPECT_EQ(file.size(), 8u);
    file.append(chunk.data(), 2);
    file.close();
    EXPECT_THROW(file.append(chunk.data(), 1), std::system_error);
  }
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(util::read_file(path, read));
  EXPECT_EQ(read.size(), 10u);

  util::truncate_file(path, 3);
  ASSERT_TRUE(util::read_file(path, read));
  EXPECT_EQ(read, (std::vector<std::uint8_t>{1, 2, 3}));

  util::remove_file(path);
  EXPECT_FALSE(util::read_file(path, read));
  util::remove_file(path);  // idempotent
}

// --------------------------------------------------- binary encoding --

TEST(BinaryCodecT, Crc32MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(encode::crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
}

TEST(BinaryCodecT, WriterReaderRoundTrip) {
  encode::ByteWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.f64(-0.8125);

  encode::ByteReader in(out.data());
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.f64(), -0.8125);
  EXPECT_EQ(in.remaining(), 0u);
  in.expect_end();
}

TEST(BinaryCodecT, TruncatedReadIsTypedWithOffset) {
  encode::ByteWriter out;
  out.u32(7);
  encode::ByteReader in(out.data());
  in.u32();
  try {
    in.u64();
    FAIL() << "read past the end must throw";
  } catch (const encode::CorruptSnapshot& error) {
    EXPECT_EQ(error.offset(), 4u);
    EXPECT_NE(std::string(error.what()).find("byte 4"), std::string::npos);
  }
}

// ----------------------------------------------------------- snapshot --

class DurableParityT
    : public ::testing::TestWithParam<std::tuple<Backend, SearchFidelity>> {};

TEST_P(DurableParityT, SnapshotRoundTripIsBitIdentical) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 1001);
  const auto queries = data::random_int_vectors(4, 5, 4, 1002);
  const auto fresh = data::random_int_vectors(3, 5, 4, 1003);

  auto live = make_index(backend, fidelity, db);
  // Dirty every piece of captured state: tombstone, overwrite (consuming
  // variation draws), and serving ordinals.
  live->remove(2);
  live->update(4, fresh[0]);
  live->search({queries[0], 2, std::nullopt});

  const auto bytes = serve::encode_snapshot(*live, 17);
  auto restored = make_empty(backend, fidelity);
  EXPECT_EQ(serve::install_snapshot(*restored, bytes), 17u);
  expect_same_state(*live, *restored, queries, fresh[1]);
}

TEST_P(DurableParityT, SaveAndLoadRoundTripOnDisk) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(5, 4, 4, 1004);
  const auto queries = data::random_int_vectors(3, 4, 4, 1005);
  ScopedDir dir;
  const std::string path = dir.path() + "/snap";

  auto live = make_index(backend, fidelity, db);
  live->remove(1);
  serve::save_snapshot(*live, path, 3);

  auto restored = make_empty(backend, fidelity);
  EXPECT_EQ(serve::load_snapshot(*restored, path), 3u);
  expect_same_state(*live, *restored, queries,
                    data::random_int_vectors(1, 4, 4, 1006).front());

  auto missing = make_empty(backend, fidelity);
  EXPECT_THROW(serve::load_snapshot(*missing, dir.path() + "/absent"),
               std::system_error);
}

// The v1 layout of serve/snapshot.cpp: a 24-byte envelope (magic,
// version, payload CRC at byte 12, payload size), then a 27-byte payload
// header (backend, fidelity, composite, metric, bits, watermark, serving
// serial), then the backend state.
constexpr std::size_t kSnapshotEnvelope = 24;
constexpr std::size_t kSnapshotCrcAt = 12;
constexpr std::size_t kSnapshotStateAt = kSnapshotEnvelope + 27;

std::uint64_t get_le(const std::vector<std::uint8_t>& bytes, std::size_t at,
                     int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(bytes.at(at + i)) << (8 * i);
  }
  return v;
}

void put_le(std::vector<std::uint8_t>& bytes, std::size_t at, int width,
            std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Offset of the reserved u64 in the engine state starting at `at`
/// (rows, dims, database, live mask, reserved, rng lanes, cached
/// gaussian, its flag, device count, Vth offsets, resistances).
std::size_t engine_reserved_at(const std::vector<std::uint8_t>& bytes,
                               std::size_t at) {
  const std::uint64_t rows = get_le(bytes, at, 8);
  const std::uint64_t dims = get_le(bytes, at + 8, 8);
  return at + 16 + rows * dims * 4 + rows;
}

/// Offset just past the engine state starting at `at`.
std::size_t engine_state_end(const std::vector<std::uint8_t>& bytes,
                             std::size_t at) {
  const std::size_t devices_at = engine_reserved_at(bytes, at) + 8 + 4 * 8 +
                                 8 + 1;
  return devices_at + 8 + get_le(bytes, devices_at, 8) * 16;
}

/// Writes `value` into the reserved u64 of the engine state starting at
/// `at` and returns the offset just past the state.
std::size_t poke_engine_reserved(std::vector<std::uint8_t>& bytes,
                                 std::size_t at, std::uint64_t value) {
  const std::size_t reserved = engine_reserved_at(bytes, at);
  EXPECT_EQ(get_le(bytes, reserved, 8), 0u);  // written as 0
  put_le(bytes, reserved, 8, value);
  return engine_state_end(bytes, at);
}

/// Rewrites the envelope's payload size and CRC after an edit.
void reseal(std::vector<std::uint8_t>& bytes) {
  put_le(bytes, kSnapshotCrcAt + 4, 8, bytes.size() - kSnapshotEnvelope);
  put_le(bytes, kSnapshotCrcAt, 4,
         encode::crc32(bytes.data() + kSnapshotEnvelope,
                       bytes.size() - kSnapshotEnvelope));
}

TEST_P(DurableParityT, RetiredSerialFieldsAreIgnoredOnRead) {
  // Older builds kept per-backend query serials and wrote them into the
  // two reserved u64 fields; a backend driven outside the index left
  // them nonzero. The index owns every ordinal, so those values must not
  // change what a restored index serves or re-encodes.
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 1009);
  const auto queries = data::random_int_vectors(4, 5, 4, 1010);
  auto live = make_index(backend, fidelity, db);
  live->remove(1);
  live->search({queries[0], 2, std::nullopt});
  const auto canonical = serve::encode_snapshot(*live, 9);

  auto with_serials = canonical;
  std::uint64_t value = 0x5e71a1;
  if (backend == Backend::kEngine) {
    EXPECT_EQ(poke_engine_reserved(with_serials, kSnapshotStateAt, value),
              with_serials.size());
  } else {
    // bank_rows, reserved, bank count, then (offset, engine state) each.
    EXPECT_EQ(get_le(with_serials, kSnapshotStateAt + 8, 8), 0u);
    put_le(with_serials, kSnapshotStateAt + 8, 8, value);
    const std::uint64_t banks = get_le(with_serials, kSnapshotStateAt + 16, 8);
    ASSERT_EQ(banks, 2u);
    std::size_t cursor = kSnapshotStateAt + 24;
    for (std::uint64_t b = 0; b < banks; ++b) {
      cursor = poke_engine_reserved(with_serials, cursor + 8, ++value);
    }
    EXPECT_EQ(cursor, with_serials.size());
  }
  reseal(with_serials);
  ASSERT_NE(with_serials, canonical);

  auto restored = make_empty(backend, fidelity);
  EXPECT_EQ(serve::install_snapshot(*restored, with_serials), 9u);
  EXPECT_EQ(serve::encode_snapshot(*restored, 9), canonical);
  expect_same_state(*live, *restored, queries, db[1]);
}

TEST(SnapshotMismatchT, WrongBackendFidelityOrGeometryIsTyped) {
  const auto db = data::random_int_vectors(5, 4, 4, 1007);

  const auto engine_bytes = serve::encode_snapshot(
      *make_index(Backend::kEngine, SearchFidelity::kCircuit, db), 1);
  const auto banked_bytes = serve::encode_snapshot(
      *make_index(Backend::kBanked, SearchFidelity::kCircuit, db), 1);

  // Backend kind.
  auto banked = make_empty(Backend::kBanked, SearchFidelity::kCircuit);
  EXPECT_THROW(serve::install_snapshot(*banked, engine_bytes),
               serve::SnapshotMismatch);
  auto engine = make_empty(Backend::kEngine, SearchFidelity::kCircuit);
  EXPECT_THROW(serve::install_snapshot(*engine, banked_bytes),
               serve::SnapshotMismatch);

  // Fidelity.
  auto nominal = make_empty(Backend::kEngine, SearchFidelity::kNominal);
  try {
    serve::install_snapshot(*nominal, engine_bytes);
    FAIL() << "fidelity mismatch must throw";
  } catch (const serve::SnapshotMismatch& error) {
    EXPECT_NE(std::string(error.what()).find("fidelity"), std::string::npos);
  }

  // Geometry: same backend kind, different bank_rows.
  arch::BankedOptions narrow;
  narrow.bank_rows = 2;
  auto other_geometry = std::make_unique<serve::BankedIndex>(narrow);
  try {
    serve::install_snapshot(*other_geometry, banked_bytes);
    FAIL() << "bank_rows mismatch must throw";
  } catch (const serve::SnapshotMismatch& error) {
    EXPECT_NE(std::string(error.what()).find("bank_rows"), std::string::npos);
  }
}

TEST(SnapshotMismatchT, BankOffsetsAndShapesMustMatchArithmeticRouting) {
  // Banked routing is arithmetic (bank = row / bank_rows): a checksummed
  // snapshot whose bank offsets or bank sizes no store()/insert() could
  // produce is a typed SnapshotMismatch, never an installed index that
  // reads out of bounds on its next search.
  const auto db = data::random_int_vectors(8, 4, 4, 1011);  // 3 + 3 + 2
  const auto canonical = serve::encode_snapshot(
      *make_index(Backend::kBanked, SearchFidelity::kCircuit, db), 1);
  auto resealed = canonical;
  reseal(resealed);
  ASSERT_EQ(resealed, canonical);
  // bank_rows, reserved, bank count, then (offset, engine state) each.
  ASSERT_EQ(get_le(canonical, kSnapshotStateAt + 16, 8), 3u);
  const std::size_t bank0 = kSnapshotStateAt + 24;
  const std::size_t bank1 = engine_state_end(canonical, bank0 + 8);
  const std::size_t bank2 = engine_state_end(canonical, bank1 + 8);
  ASSERT_EQ(get_le(canonical, bank1, 8), 3u);

  auto bad_offset = canonical;
  put_le(bad_offset, bank0, 8, 5);
  reseal(bad_offset);

  // The middle bank swapped for the one bank of a 2-row snapshot.
  const auto two_rows = serve::encode_snapshot(
      *make_index(Backend::kBanked, SearchFidelity::kCircuit,
                  {db[0], db[1]}),
      1);
  std::vector<std::uint8_t> short_middle(canonical.begin(),
                                         canonical.begin() + bank1 + 8);
  short_middle.insert(short_middle.end(),
                      two_rows.begin() + kSnapshotStateAt + 32,
                      two_rows.end());
  short_middle.insert(short_middle.end(), canonical.begin() + bank2,
                      canonical.end());
  reseal(short_middle);

  for (const auto* bytes : {&bad_offset, &short_middle}) {
    auto index = make_empty(Backend::kBanked, SearchFidelity::kCircuit);
    EXPECT_THROW(serve::install_snapshot(*index, *bytes),
                 serve::SnapshotMismatch);
    ScopedDir dir;
    util::atomic_write_file(dir.path() + "/snapshot.ferex", *bytes);
    auto recovered = make_empty(Backend::kBanked, SearchFidelity::kCircuit);
    EXPECT_THROW(serve::recover_index(*recovered, dir.path()),
                 serve::SnapshotMismatch);
  }
}

TEST(SnapshotHeaderT, OutOfRangeFieldsAreCorruptAtTheirOffset) {
  // Each header field is checked as it is read: a checksum-valid snapshot
  // naming a backend, fidelity, composite flag, metric, width or bank
  // height no build writes is malformed bytes at that field's payload
  // offset, and the index is not touched. (Metric 256 once installed as
  // Hamming, metric 3 failed inside the crossbar, bits 0 or 9 failed
  // untyped in configure.)
  const auto db = data::random_int_vectors(5, 4, 4, 1034);
  auto engine = make_empty(Backend::kEngine, SearchFidelity::kCircuit);
  engine->configure(DistanceMetric::kManhattan, 2);
  engine->store(db);
  const auto manhattan = serve::encode_snapshot(*engine, 1);
  const auto banked = serve::encode_snapshot(
      *make_index(Backend::kBanked, SearchFidelity::kCircuit, db), 1);
  struct Case {
    const std::vector<std::uint8_t>* snapshot;
    Backend target;
    std::size_t field;  // payload offset, see kSnapshotStateAt
    int width;
    std::uint64_t value;
  };
  const Case cases[] = {
      {&manhattan, Backend::kEngine, 0, 1, 0},    // backend kind
      {&manhattan, Backend::kEngine, 0, 1, 3},
      {&manhattan, Backend::kEngine, 1, 1, 2},    // fidelity
      {&manhattan, Backend::kEngine, 2, 1, 2},    // composite flag
      {&manhattan, Backend::kEngine, 3, 4, 3},    // metric
      {&manhattan, Backend::kEngine, 3, 4, 256},
      {&manhattan, Backend::kEngine, 7, 4, 0},    // bits
      {&manhattan, Backend::kEngine, 7, 4, 9},
      {&banked, Backend::kBanked, 2, 1, 1},       // composite is one macro's
      {&banked, Backend::kBanked, 27, 8, 0},      // bank_rows
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("payload byte " + std::to_string(c.field) + " = " +
                 std::to_string(c.value));
    auto bytes = *c.snapshot;
    put_le(bytes, kSnapshotEnvelope + c.field, c.width, c.value);
    reseal(bytes);
    auto target = make_empty(c.target, SearchFidelity::kCircuit);
    try {
      serve::install_snapshot(*target, bytes);
      ADD_FAILURE() << "an out-of-range header field must throw";
    } catch (const encode::CorruptSnapshot& error) {
      EXPECT_EQ(error.offset(), c.field);
    }
    EXPECT_THROW(serve::encode_snapshot(*target, 0), std::logic_error)
        << "the index must stay unconfigured";
  }
}

TEST_P(DurableParityT, RejectedConfigureLeavesTheRecordedEncodingAlone) {
  // A configure no encoding exists for (a width outside [1, 8], a value
  // no DistanceMetric names) journals, fails live and replays as the same
  // no-op. It must leave the recorded metric and width alone on both
  // backends, stored or not, or the next checkpoint would write a header
  // that no install accepts.
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(5, 4, 4, 1035);
  ScopedDir dir;
  auto live = make_empty(backend, fidelity);
  serve::DurableIndex durable(*live, dir.path());
  const auto rejected = [&] {
    EXPECT_THROW(durable.configure(DistanceMetric::kManhattan, 9),
                 std::invalid_argument);
    EXPECT_THROW(durable.configure(static_cast<DistanceMetric>(3), 2),
                 std::invalid_argument);
  };
  durable.configure(DistanceMetric::kManhattan, 2);
  const auto unstored = serve::encode_snapshot(*live, 0);
  rejected();
  EXPECT_EQ(serve::encode_snapshot(*live, 0), unstored);
  durable.store(db);
  const auto stored = serve::encode_snapshot(*live, 0);
  rejected();
  EXPECT_EQ(serve::encode_snapshot(*live, 0), stored);

  auto replayed = make_empty(backend, fidelity);
  EXPECT_EQ(serve::recover_index(*replayed, dir.path()), 6u);
  EXPECT_EQ(serve::encode_snapshot(*replayed, 0), stored);
  durable.checkpoint();
  auto reloaded = make_empty(backend, fidelity);
  EXPECT_EQ(serve::recover_index(*reloaded, dir.path()), 6u);
  EXPECT_EQ(serve::encode_snapshot(*reloaded, 0), stored);
}

TEST(SnapshotFuzzT, EveryByteFlipAndTruncationIsTypedNeverSilent) {
  const auto db = data::random_int_vectors(4, 4, 4, 1008);
  const auto valid = serve::encode_snapshot(
      *make_index(Backend::kEngine, SearchFidelity::kCircuit, db), 5);

  // Single-bit flips at every byte offset: the envelope checks (magic,
  // version, size) or the payload CRC must catch every one of them —
  // install throws a typed error and never yields a silently wrong index.
  for (std::size_t i = 0; i < valid.size(); ++i) {
    auto mutated = valid;
    mutated[i] ^= 0x01;
    auto target = make_empty(Backend::kEngine, SearchFidelity::kCircuit);
    SCOPED_TRACE("flip at byte " + std::to_string(i));
    EXPECT_THROW(serve::install_snapshot(*target, mutated),
                 encode::CorruptSnapshot);
  }

  // Truncation at every length.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    std::vector<std::uint8_t> cut(valid.begin(), valid.begin() + len);
    auto target = make_empty(Backend::kEngine, SearchFidelity::kCircuit);
    SCOPED_TRACE("truncated to " + std::to_string(len));
    EXPECT_THROW(serve::install_snapshot(*target, cut),
                 encode::CorruptSnapshot);
  }
}

// ---------------------------------------------------------------- wal --

TEST(WalT, AppendReadRoundTripAndReopen) {
  ScopedDir dir;
  const std::string path = dir.path() + "/wal";
  const auto db = data::random_int_vectors(3, 4, 4, 1009);
  {
    serve::Wal wal(path, util::SyncPolicy::kEveryAppend);
    EXPECT_EQ(wal.append_configure(DistanceMetric::kHamming, 2, false), 1u);
    EXPECT_EQ(wal.append_store(db), 2u);
    EXPECT_EQ(wal.append_insert(db[0]), 3u);
    EXPECT_EQ(wal.append_remove(1), 4u);
    EXPECT_EQ(wal.append_update(2, db[1]), 5u);
    EXPECT_EQ(wal.next_seq(), 6u);
  }

  const auto scan = serve::read_wal(path);
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.records[0].op, serve::WalOp::kConfigure);
  EXPECT_EQ(scan.records[0].metric, DistanceMetric::kHamming);
  EXPECT_EQ(scan.records[0].bits, 2);
  EXPECT_FALSE(scan.records[0].composite);
  EXPECT_EQ(scan.records[1].op, serve::WalOp::kStore);
  EXPECT_EQ(scan.records[1].vectors, db);
  EXPECT_EQ(scan.records[2].op, serve::WalOp::kInsert);
  EXPECT_EQ(scan.records[2].vectors.front(), db[0]);
  EXPECT_EQ(scan.records[3].op, serve::WalOp::kRemove);
  EXPECT_EQ(scan.records[3].row, 1u);
  EXPECT_EQ(scan.records[4].op, serve::WalOp::kUpdate);
  EXPECT_EQ(scan.records[4].row, 2u);
  EXPECT_EQ(scan.records[4].vectors.front(), db[1]);
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
  }

  // Reopen continues the sequence, never rewrites.
  serve::Wal wal(path, util::SyncPolicy::kEveryAppend,
                 scan.records.back().seq + 1);
  EXPECT_EQ(wal.append_remove(0), 6u);
  EXPECT_EQ(serve::read_wal(path).records.size(), 6u);

  // A missing log is an empty result, not an error.
  const auto absent = serve::read_wal(dir.path() + "/absent");
  EXPECT_TRUE(absent.records.empty());
  EXPECT_FALSE(absent.torn_tail);
}

TEST(WalT, TornTailAtEveryByteRecoversThePrefix) {
  ScopedDir dir;
  const std::string path = dir.path() + "/wal";
  const auto db = data::random_int_vectors(2, 3, 4, 1010);
  {
    serve::Wal wal(path, util::SyncPolicy::kNever);
    wal.append_configure(DistanceMetric::kHamming, 2, false);
    wal.append_store(db);
    wal.append_insert(db[0]);
    wal.append_remove(0);
  }
  std::vector<std::uint8_t> full;
  ASSERT_TRUE(util::read_file(path, full));
  const auto reference = serve::read_wal(path);
  ASSERT_EQ(reference.records.size(), 4u);

  // Record boundaries, from the scanner itself (header, then each frame).
  std::vector<std::size_t> boundaries = {12};
  for (std::size_t offset = 12; offset < full.size();) {
    encode::ByteReader frame(full.data() + offset, 4);
    offset += 8 + frame.u32();
    boundaries.push_back(offset);
  }
  ASSERT_EQ(boundaries.back(), full.size());

  const std::string torn = dir.path() + "/torn";
  for (std::size_t len = 0; len <= full.size(); ++len) {
    SCOPED_TRACE("torn at byte " + std::to_string(len));
    util::atomic_write_file(
        torn, std::vector<std::uint8_t>(full.begin(), full.begin() + len));
    const auto scan = serve::read_wal(torn);
    // The prefix of complete records survives; everything after the last
    // boundary at or below the cut is reported torn.
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() &&
           boundaries[complete + 1] <= len) {
      ++complete;
    }
    ASSERT_EQ(scan.records.size(), complete);
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(scan.records[i].seq, reference.records[i].seq);
      EXPECT_EQ(scan.records[i].op, reference.records[i].op);
    }
    const bool at_boundary =
        len == 0 ||
        std::find(boundaries.begin(), boundaries.end(), len) != boundaries.end();
    EXPECT_EQ(scan.torn_tail, !at_boundary);

    // Repair truncates to the last boundary and the log reopens clean.
    serve::repair_wal(torn);
    const auto repaired = serve::read_wal(torn);
    EXPECT_FALSE(repaired.torn_tail);
    EXPECT_EQ(repaired.records.size(), complete);
    serve::Wal reopened(torn, util::SyncPolicy::kNever,
                        complete > 0 ? repaired.records.back().seq + 1 : 1);
    reopened.append_remove(1);
    EXPECT_EQ(serve::read_wal(torn).records.size(), complete + 1);
  }
}

TEST(WalT, MidLogCorruptionIsTypedWithOffset) {
  ScopedDir dir;
  const std::string path = dir.path() + "/wal";
  const auto db = data::random_int_vectors(2, 3, 4, 1011);
  {
    serve::Wal wal(path, util::SyncPolicy::kNever);
    wal.append_configure(DistanceMetric::kHamming, 2, false);
    wal.append_store(db);
    wal.append_remove(0);
  }
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(util::read_file(path, bytes));

  // Flip a payload byte of the FIRST record: CRC fails before the tail.
  {
    auto corrupt = bytes;
    corrupt[12 + 8] ^= 0x40;
    util::atomic_write_file(path, corrupt);
    try {
      serve::read_wal(path);
      FAIL() << "mid-log corruption must throw";
    } catch (const serve::CorruptLog& error) {
      EXPECT_EQ(error.offset(), 12u);
      EXPECT_NE(std::string(error.what()).find("byte 12"), std::string::npos);
    }
    // repair_wal only fixes torn tails; real corruption stays typed.
    EXPECT_THROW(serve::repair_wal(path), serve::CorruptLog);
  }

  // A sequence gap (record spliced out) is corruption, not a tail.
  {
    encode::ByteReader first_frame(bytes.data() + 12, 4);
    const std::size_t first_end = 12 + 8 + first_frame.u32();
    encode::ByteReader second_frame(bytes.data() + first_end, 4);
    const std::size_t second_end = first_end + 8 + second_frame.u32();
    std::vector<std::uint8_t> spliced(bytes.begin(), bytes.begin() + first_end);
    spliced.insert(spliced.end(), bytes.begin() + second_end, bytes.end());
    util::atomic_write_file(path, spliced);
    try {
      serve::read_wal(path);
      FAIL() << "a sequence gap must throw";
    } catch (const serve::CorruptLog& error) {
      EXPECT_EQ(error.offset(), first_end);
      EXPECT_NE(std::string(error.what()).find("sequence gap"),
                std::string::npos);
    }
  }

  // A flipped header byte is corruption at offset 0.
  {
    auto corrupt = bytes;
    corrupt[0] ^= 0x01;
    util::atomic_write_file(path, corrupt);
    EXPECT_THROW(serve::read_wal(path), serve::CorruptLog);
  }
}

// ------------------------------------------------------------ recover --

TEST_P(DurableParityT, RecoveryEqualsTheLiveSequence) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 1012);
  const auto queries = data::random_int_vectors(4, 5, 4, 1013);
  const auto fresh = data::random_int_vectors(4, 5, 4, 1014);
  ScopedDir dir;

  auto live = make_empty(backend, fidelity);
  serve::DurableIndex durable(*live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  durable.remove(2);
  durable.update(4, fresh[1]);
  // A deterministically failing write (double remove — slot 2 is still
  // a tombstone) journals, fails live, and must replay as the identical
  // no-op.
  EXPECT_THROW(durable.remove(2), std::logic_error);
  durable.insert(fresh[0]);  // reuses the freed slot
  EXPECT_EQ(durable.last_seq(), 6u);

  // Cold-start recovery: WAL-only replay.
  {
    auto recovered = make_empty(backend, fidelity);
    EXPECT_EQ(serve::recover_index(*recovered, dir.path()), 6u);
    // Compare against a clone recovered the same way rather than
    // mutating the live index mid-test.
    auto reference = make_empty(backend, fidelity);
    serve::recover_index(*reference, dir.path());
    expect_same_state(*recovered, *reference, queries, fresh[2]);
  }

  // Checkpoint rotates the WAL; recovery now installs the snapshot.
  durable.checkpoint();
  {
    std::vector<std::uint8_t> log;
    ASSERT_TRUE(util::read_file(durable.wal_path(), log));
    EXPECT_EQ(log.size(), 12u);  // header only — records were dropped
  }
  durable.remove(0);
  durable.insert(fresh[3]);
  EXPECT_EQ(durable.last_seq(), 8u);

  auto recovered = make_empty(backend, fidelity);
  EXPECT_EQ(serve::recover_index(*recovered, dir.path()), 8u);
  expect_same_state(*live, *recovered, queries, fresh[2]);
}

TEST_P(DurableParityT, WatermarkMakesReplayIdempotent) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(5, 4, 4, 1015);
  const auto queries = data::random_int_vectors(3, 4, 4, 1016);
  const auto probe = data::random_int_vectors(1, 4, 4, 1017).front();
  ScopedDir dir;

  auto live = make_empty(backend, fidelity);
  serve::DurableIndex durable(*live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  durable.remove(1);
  durable.insert(db[0]);

  // Snapshot WITHOUT rotating — the crash window between a checkpoint's
  // snapshot write and its log rotation. Every WAL record is now at or
  // below the watermark; replaying the full log over the snapshot must
  // skip them all instead of double-applying.
  serve::save_snapshot(*live, durable.snapshot_path(), durable.last_seq());
  EXPECT_EQ(serve::read_wal(durable.wal_path()).records.size(), 4u);

  auto recovered = make_empty(backend, fidelity);
  EXPECT_EQ(serve::recover_index(*recovered, dir.path()), durable.last_seq());
  expect_same_state(*live, *recovered, queries, probe);
}

TEST_P(DurableParityT, AsyncSessionJournalsInAdmissionOrder) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 1018);
  const auto queries = data::random_int_vectors(4, 5, 4, 1019);
  const auto fresh = data::random_int_vectors(4, 5, 4, 1020);
  ScopedDir dir;

  auto live = make_empty(backend, fidelity);
  serve::DurableIndex durable(*live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);

  {
    serve::AsyncOptions options;
    options.max_batch = 4;
    options.wal = &durable.wal();
    serve::AsyncAmIndex async_index(*live, options);
    // While the session owns the index, the durable front door is shut —
    // nothing may journal out of order.
    EXPECT_THROW(durable.remove(0), serve::MutationWhileServed);
    EXPECT_THROW(durable.checkpoint(), serve::MutationWhileServed);

    std::vector<std::future<serve::WriteReceipt>> writes;
    writes.push_back(async_index.submit_remove(2));
    auto search = async_index.submit({queries[0], 2, std::nullopt});
    writes.push_back(async_index.submit_insert(fresh[0]));
    writes.push_back(async_index.submit_update(4, fresh[1]));
    writes.push_back(async_index.submit_remove(0));
    search.get();
    for (auto& w : writes) w.get();
    // A failing async write journals too and replays as the same no-op.
    EXPECT_THROW(async_index.submit_remove(0).get(), std::logic_error);
  }
  EXPECT_EQ(durable.last_seq(), 7u);  // configure, store, 5 session writes

  // WAL-only replay reproduces the async session's serialized order.
  auto recovered = make_empty(backend, fidelity);
  EXPECT_EQ(serve::recover_index(*recovered, dir.path()), 7u);
  // Search ordinals are serving-session state: the log does not carry
  // them (searches are not mutations), so align the recovered index
  // before comparing — a checkpoint would have captured them.
  recovered->set_query_serial(live->query_serial());
  expect_same_state(*live, *recovered, queries, fresh[2]);

  durable.checkpoint();
  auto reloaded = make_empty(backend, fidelity);
  serve::recover_index(*reloaded, dir.path());
  EXPECT_EQ(reloaded->query_serial(), live->query_serial());
}

// --------------------------------------------------------- compaction --

TEST_P(DurableParityT, CompactionIsBitIdenticalToAFreshStoreOfSurvivors) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(7, 5, 4, 1021);
  const auto queries = data::random_int_vectors(4, 5, 4, 1022);
  const auto probe = data::random_int_vectors(1, 5, 4, 1023).front();
  ScopedDir dir;

  auto live = make_empty(backend, fidelity);
  serve::DurableIndex durable(*live, dir.path());
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);
  durable.remove(1);
  durable.remove(4);
  EXPECT_EQ(durable.compact(), 2u);
  EXPECT_EQ(live->stored_count(), 5u);
  EXPECT_EQ(live->live_count(), 5u);

  // The proof: a brand-new index fresh-storing exactly the survivors.
  std::vector<std::vector<int>> survivors;
  for (std::size_t r = 0; r < db.size(); ++r) {
    if (r != 1 && r != 4) survivors.push_back(db[r]);
  }
  auto reference = make_index(backend, fidelity, survivors);
  expect_same_state(*live, *reference, queries, probe);

  // compact() checkpoints, so recovery sees the compacted layout.
  auto recovered = make_empty(backend, fidelity);
  serve::recover_index(*recovered, dir.path());
  auto reference2 = make_index(backend, fidelity, survivors);
  // expect_same_state inserted the probe into live/reference above;
  // recovered reflects the checkpoint taken before that.
  EXPECT_EQ(recovered->stored_count(), 5u);
  EXPECT_EQ(recovered->live_count(), 5u);
  expect_same_state(*recovered, *reference2, queries, probe);
}

TEST(DurableTriggerT, FreedFractionTriggersCompactionAutomatically) {
  const auto db = data::random_int_vectors(6, 4, 4, 1024);
  ScopedDir dir;
  serve::EngineIndex index{core::FerexOptions{}};
  serve::DurableOptions options;
  options.compact_free_fraction = 0.3;
  serve::DurableIndex durable(index, dir.path(), options);
  durable.configure(DistanceMetric::kHamming, 2);
  durable.store(db);

  durable.remove(0);  // 1/6 freed — below threshold
  EXPECT_EQ(index.stored_count(), 6u);
  durable.remove(3);  // 2/6 freed — crosses 0.3
  EXPECT_EQ(index.stored_count(), 4u);
  EXPECT_EQ(index.live_count(), 4u);

  // The trigger checkpointed: recovery restores the compacted index.
  serve::EngineIndex recovered{core::FerexOptions{}};
  serve::recover_index(recovered, dir.path());
  EXPECT_EQ(recovered.stored_count(), 4u);
  EXPECT_EQ(recovered.live_count(), 4u);
}

// ---------------------------------------------------------- composite --

TEST(DurableCompositeT, JournaledCompositeRecoversAndOtherBackendsRefuseIt) {
  // Composite (digit-decomposed) encodings are single-macro only. A
  // journaled composite configure recovers to the live index, from the
  // log alone and from a checkpoint; a banked array refuses one before
  // anything is journaled, and recovering the log into one is the wrong
  // backend, not a replayed no-op.
  const auto db = data::random_int_vectors(6, 4, 16, 1031);
  const auto queries = data::random_int_vectors(3, 4, 16, 1032);
  const auto fresh = data::random_int_vectors(3, 4, 16, 1033);
  arch::BankedOptions banked_options;
  banked_options.bank_rows = 3;
  ScopedDir dir;

  serve::EngineIndex live{core::FerexOptions{}};
  serve::DurableIndex durable(live, dir.path());
  durable.configure_composite(DistanceMetric::kHamming, 4);
  durable.store(db);
  durable.remove(2);
  durable.update(4, fresh[0]);
  durable.insert(fresh[1]);  // reuses the freed slot
  ASSERT_NE(live.engine().codec(), nullptr);
  EXPECT_EQ(durable.last_seq(), 5u);

  const auto expect_recovers_live = [&](std::uint64_t last) {
    serve::EngineIndex recovered{core::FerexOptions{}};
    EXPECT_EQ(serve::recover_index(recovered, dir.path()), last);
    EXPECT_EQ(serve::encode_snapshot(recovered, last),
              serve::encode_snapshot(live, last));
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const serve::SearchRequest request(queries[q], 3, 40 + q);
      expect_identical(recovered.search(request), live.search(request));
    }
    serve::BankedIndex banked(banked_options);
    EXPECT_THROW(serve::recover_index(banked, dir.path()),
                 serve::SnapshotMismatch);
  };
  expect_recovers_live(5);  // WAL only: the composite record replays
  durable.checkpoint();
  durable.insert(fresh[2]);
  expect_recovers_live(6);  // snapshot, then the WAL tail

  ScopedDir banked_dir;
  serve::BankedIndex banked(banked_options);
  serve::DurableIndex banked_durable(banked, banked_dir.path());
  banked_durable.configure(DistanceMetric::kHamming, 2);
  EXPECT_THROW(banked_durable.configure_composite(DistanceMetric::kHamming, 4),
               std::invalid_argument);
  EXPECT_EQ(banked_durable.last_seq(), 1u);
}

// ---------------------------------------------------- crash injection --

/// Thrown by an armed failpoint to simulate dying at that instant
/// in-process (the kill-child test below does it with a real _exit).
struct CrashSim {};

constexpr std::uint64_t kScriptSeqs = 8;

/// The crash-sweep workload: configure, store, then six interleaved
/// writes — seq numbers 1..8 — with a checkpoint after seq 4 when
/// `with_checkpoint` (checkpoints are logically transparent, so the
/// reference replays the same prefix without one). `limit` cuts the
/// script short for prefix references.
void run_script(serve::DurableIndex& durable, std::uint64_t limit,
                const std::vector<std::vector<int>>& db,
                const std::vector<std::vector<int>>& fresh,
                bool with_checkpoint) {
  std::uint64_t seq = 0;
  const auto step = [&](auto&& op) {
    if (seq < limit) {
      ++seq;
      op();
    }
  };
  step([&] { durable.configure(DistanceMetric::kHamming, 2); });
  step([&] { durable.store(db); });
  step([&] { durable.remove(1); });
  step([&] { durable.insert(fresh[0]); });
  if (with_checkpoint && seq == 4) durable.checkpoint();
  step([&] { durable.update(3, fresh[1]); });
  step([&] { durable.remove(0); });
  step([&] { durable.insert(fresh[2]); });
  step([&] { durable.update(0, fresh[3]); });
}

const char* const kCrashSites[] = {
    "wal.append.before_record",        "wal.append.after_record",
    "durable.append.before_write",     "durable.append.before_sync",
    "durable.append.after_commit",     "durable.atomic.before_temp_sync",
    "durable.atomic.before_rename",    "durable.atomic.before_dir_sync",
    "durable.checkpoint.before_snapshot",
    "durable.checkpoint.after_snapshot",
};

TEST_P(DurableParityT, CrashAtEveryInjectionPointRecoversBitIdentical) {
  const auto [backend, fidelity] = GetParam();
  const auto db = data::random_int_vectors(6, 5, 4, 1025);
  const auto queries = data::random_int_vectors(3, 5, 4, 1026);
  const auto fresh = data::random_int_vectors(5, 5, 4, 1027);

  for (const char* site : kCrashSites) {
    // Dry run: count how often this site fires across the workload.
    std::uint64_t hits = 0;
    {
      ScopedDir dir;
      auto index = make_empty(backend, fidelity);
      util::failpoint_arm(site, 0, nullptr);
      serve::DurableIndex durable(*index, dir.path());
      run_script(durable, kScriptSeqs, db, fresh, true);
      hits = util::failpoint_hits();
      util::failpoint_disarm();
    }
    ASSERT_GT(hits, 0u) << site << " never fired — dead injection site";

    // Then die at each boundary in turn.
    for (std::uint64_t nth = 1; nth <= hits; ++nth) {
      SCOPED_TRACE(std::string(site) + " hit " + std::to_string(nth));
      ScopedDir dir;
      {
        auto index = make_empty(backend, fidelity);
        util::failpoint_arm(site, nth, [] { throw CrashSim{}; });
        try {
          serve::DurableIndex durable(*index, dir.path());
          run_script(durable, kScriptSeqs, db, fresh, true);
        } catch (const CrashSim&) {
          // Died mid-workload; the in-memory index is abandoned.
        }
        util::failpoint_disarm();
      }

      auto recovered = make_empty(backend, fidelity);
      const std::uint64_t applied = serve::recover_index(*recovered,
                                                         dir.path());
      ASSERT_LE(applied, kScriptSeqs);

      // The recovered state must equal an uninterrupted run of exactly
      // the prefix that became durable.
      ScopedDir reference_dir;
      auto reference = make_empty(backend, fidelity);
      serve::DurableIndex reference_durable(*reference, reference_dir.path());
      run_script(reference_durable, applied, db, fresh, false);
      expect_same_state(*recovered, *reference, queries, fresh[4]);
    }
  }
}

TEST(KillChildT, RecoversBitIdenticalAfterHardProcessDeath) {
  const auto db = data::random_int_vectors(6, 5, 4, 1028);
  const auto queries = data::random_int_vectors(3, 5, 4, 1029);
  const auto fresh = data::random_int_vectors(5, 5, 4, 1030);

  // Crash after the 3rd, 5th, and 7th record commit, plus one run that
  // survives the whole workload (the countdown never fires).
  for (const std::uint64_t nth : {3u, 5u, 7u, 1000u}) {
    SCOPED_TRACE("kill after record " + std::to_string(nth));
    ScopedDir dir;
    const ::pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: real process death via _exit — no unwinding, no
      // destructors, exactly a kill at the record boundary. Async
      // session so the journal-at-admission path is the one being
      // killed.
      util::failpoint_arm("wal.append.after_record", nth, [] { ::_exit(0); });
      serve::EngineIndex index{core::FerexOptions{}};
      serve::DurableIndex durable(index, dir.path());
      durable.configure(DistanceMetric::kHamming, 2);
      durable.store(db);
      serve::AsyncOptions options;
      options.wal = &durable.wal();
      serve::AsyncAmIndex async_index(index, options);
      async_index.submit_remove(1).get();
      async_index.submit_insert(fresh[0]).get();
      async_index.submit_update(3, fresh[1]).get();
      async_index.submit_remove(0).get();
      async_index.submit_insert(fresh[2]).get();
      async_index.shutdown();
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    serve::EngineIndex recovered{core::FerexOptions{}};
    const std::uint64_t applied = serve::recover_index(recovered, dir.path());
    ASSERT_LE(applied, 7u);
    // The async child acknowledged ops in submission order, so the
    // durable prefix maps 1:1 onto the synchronous script below.
    serve::EngineIndex reference{core::FerexOptions{}};
    ScopedDir reference_dir;
    serve::DurableIndex reference_durable(reference, reference_dir.path());
    std::uint64_t seq = 0;
    const auto step = [&](auto&& op) {
      if (seq < applied) {
        ++seq;
        op();
      }
    };
    step([&] { reference_durable.configure(DistanceMetric::kHamming, 2); });
    step([&] { reference_durable.store(db); });
    step([&] { reference_durable.remove(1); });
    step([&] { reference_durable.insert(fresh[0]); });
    step([&] { reference_durable.update(3, fresh[1]); });
    step([&] { reference_durable.remove(0); });
    step([&] { reference_durable.insert(fresh[2]); });
    expect_same_state(recovered, reference, queries, fresh[3]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DurableParityT,
    ::testing::Combine(::testing::Values(Backend::kEngine, Backend::kBanked),
                       ::testing::Values(SearchFidelity::kCircuit,
                                         SearchFidelity::kNominal)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == Backend::kEngine
                             ? "Engine"
                             : "Banked";
      name += std::get<1>(info.param) == SearchFidelity::kCircuit
                  ? "Circuit"
                  : "Nominal";
      return name;
    });

// ---------------------------------------------------------- failpoint --

TEST(FailPointT, CountdownAndHitAccounting) {
  int fired = 0;
  util::failpoint_arm("test.site", 3, [&] { ++fired; });
  util::failpoint_hit("other.site");  // no match, not counted
  EXPECT_EQ(util::failpoint_hits(), 0u);
  util::failpoint_hit("test.site");
  util::failpoint_hit("test.site");
  EXPECT_EQ(fired, 0);
  util::failpoint_hit("test.site");
  EXPECT_EQ(fired, 1);
  util::failpoint_hit("test.site");  // past the countdown: counted, no fire
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(util::failpoint_hits(), 4u);
  util::failpoint_disarm();
  util::failpoint_hit("test.site");
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace ferex
