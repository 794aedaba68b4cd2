// FeReX — the reconfigurable in-memory nearest-neighbor search engine
// (the paper's primary contribution, Sec. III).
//
// Usage:
//   core::FerexEngine engine(options);
//   engine.configure(csp::DistanceMetric::kHamming, /*bits=*/2);
//   engine.store(database);                  // programs the crossbar
//   auto hits = engine.search_hits_at(query, /*k=*/1, /*ordinal=*/0);
//   engine.configure(csp::DistanceMetric::kManhattan, 2);  // re-encode,
//   // same stored data, new distance function — no new hardware.
//
// configure() runs the CSP encoder (Algorithm 1 + Fig. 5 post-processing)
// for the requested metric, derives the voltage ladder, and re-programs
// the stored vectors under the new encoding. search_hits_at() drives the
// simulated crossbar and LTA; searches can run at circuit fidelity
// (device currents, variation, comparator noise) or at nominal fidelity
// (integer current arithmetic the circuit is verified against). The
// engine keeps no query counter: the caller names each search's
// comparator-noise stream by ordinal. serve::EngineIndex wraps the
// engine with ordinal accounting, request validation and batching.
// A circuit-fidelity array of at least kIntraQueryMinDevices devices
// fans one query's rows across util::parallel_for; inside another
// fan-out that loop runs inline (util::parallel's nesting rule).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "circuit/crossbar.hpp"
#include "circuit/energy_model.hpp"
#include "circuit/lta.hpp"
#include "circuit/write.hpp"
#include "core/hit.hpp"
#include "csp/distance_matrix.hpp"
#include "encode/composite.hpp"
#include "encode/encoder.hpp"
#include "util/rng.hpp"

namespace ferex::core {

/// How faithfully a search models the hardware.
enum class SearchFidelity {
  kCircuit,  ///< device-level currents + variation + LTA offset noise
  kNominal,  ///< exact integer current arithmetic (verified equivalent)
};

struct FerexOptions {
  encode::EncoderOptions encoder{};
  circuit::CrossbarConfig circuit{};
  circuit::LtaParams lta{};
  circuit::ParasiticParams parasitics{};
  /// Base voltage of the Vs/Vt ladder and its pitch (margin = pitch / 2).
  double ladder_base_v = 0.2;
  double ladder_step_v = 0.6;
  SearchFidelity fidelity = SearchFidelity::kCircuit;
  std::uint64_t seed = 0x5eed;
};

/// Work-size gate for fanning one query across the worker pool: a
/// circuit-fidelity search whose devices (rows * dims * fefets per cell,
/// summed over the banks of a banked array) reach this count fans its
/// rows — or a banked array its banks — across util::parallel_for.
/// Below it the solve work is too small to pay for the hand-off. The
/// nominal-fidelity kernel is a table gather whose per-row cost is far
/// below any hand-off, so it never fans. Scheduling only: results are
/// bit-identical either way.
inline constexpr std::size_t kIntraQueryMinDevices = 32768;

class FerexEngine {
 public:
  explicit FerexEngine(FerexOptions options = {});

  /// Configures (or re-configures) the distance function. Runs the CSP
  /// encoder; re-programs any stored data under the new encoding.
  /// Throws std::runtime_error if no feasible encoding exists within the
  /// encoder limits.
  void configure(csp::DistanceMetric metric, int bits);

  /// Configures from an arbitrary custom distance matrix.
  void configure(const csp::DistanceMatrix& dm);

  /// Configures through a composite (digit-decomposed) encoding — the
  /// scalable path for separable metrics at bit widths the exact CSP
  /// cannot reach (bit-sliced Hamming up to 8 bits, thermometer Manhattan
  /// up to 6 bits). Each logical element occupies codec.subcells()
  /// physical cells; searches and programming are transparent.
  /// Throws std::runtime_error for non-separable metrics (Euclidean).
  void configure_composite(csp::DistanceMetric metric, int bits);

  /// Active codec when configured via configure_composite (else nullptr).
  const encode::ValueCodec* codec() const noexcept {
    return codec_ ? &*codec_ : nullptr;
  }

  /// Stores a database of vectors (all of equal length; element values in
  /// [0, 2^bits)). Replaces any previous contents and programs the array.
  void store(std::vector<std::vector<int>> database);

  /// Streaming insert. Reuses the lowest freed (removed) slot first —
  /// the slot is already erased, so the write pays programming only and
  /// the array keeps its physical footprint — and only otherwise appends
  /// a row (program_row on a grown array — no re-store of existing
  /// rows). Requires configure(); the first insert on an empty engine
  /// establishes the dimensionality. Append searches are bit-identical
  /// to a fresh store() of the concatenated database (the new row's
  /// device variation continues the engine's variation stream exactly
  /// where a larger store() would have drawn it); a reused slot keeps
  /// its own device variation, so the result equals a fresh store() of
  /// the same physical layout. A later configure() re-encodes inserted
  /// rows like any stored row. Throws without mutating on a wrong-length
  /// or out-of-alphabet vector. The receipt names the slot (bank 0) and
  /// its write cost.
  WriteReceipt insert(std::span<const int> vector);

  /// Deletes one row: erases the slot (a single row-wide erase pulse,
  /// whose WriteCost is returned) and masks it in the post-decoder, so
  /// it can never win an LTA round — live rows' comparator-noise draws
  /// are exactly those of an array holding only the live rows. The slot
  /// stays allocated and is the first insert() reuses. Throws
  /// std::out_of_range on a bad index, std::logic_error when the row is
  /// already removed.
  circuit::WriteCost remove(std::size_t row);

  /// Overwrites one slot in place — erase (charged only when the slot
  /// held live data; a removed slot is already erased) plus
  /// program-and-verify, mirroring program_cost's per-row accounting —
  /// and marks it live. Validates the vector before mutating.
  circuit::WriteCost update(std::size_t row, std::span<const int> vector);

  /// The search core: the top-k rows nearest first (bank 0), each with
  /// its sensed current, margin to the best remaining row, and nominal
  /// distance.
  /// Requires configure() and store(), and 1 <= k <= live_count(). The
  /// ordinal selects the per-query comparator-noise stream, so results do
  /// not depend on the order or thread in which queries run. Const: the
  /// engine counts no ordinals; serve::EngineIndex does. The rows fan
  /// across the worker pool when the array reaches kIntraQueryMinDevices
  /// at circuit fidelity; `parallel_rows` pins the schedule instead
  /// (tests and per-layer timing pass false for the serial row loop).
  /// The schedule never affects results.
  std::vector<Hit> search_hits_at(
      std::span<const int> query, std::size_t k, std::uint64_t ordinal,
      std::optional<bool> parallel_rows = std::nullopt) const;

  /// Raw sensed row currents for a query (codec-expanded; at nominal
  /// fidelity these are exact distances). Building block for multi-macro
  /// architectures that place their own comparator across banks.
  std::vector<double> row_currents(std::span<const int> query) const;

  /// The unit in which row_currents() is expressed: the cell unit current
  /// at circuit fidelity, 1.0 (distance units) at nominal fidelity.
  double sense_unit() const;

  /// Exact software distance between the query and a stored row under the
  /// configured metric (the verification reference).
  int software_distance(std::span<const int> query, std::size_t row) const;

  /// Encoding-level distance between the query and a stored row — the
  /// value Hit::nominal_distance reports for that row (codec
  /// expansion applied; equals software_distance for standard metrics).
  int nominal_distance(std::span<const int> query, std::size_t row) const;

  /// Validates a query exactly as search_hits_at and row_currents do:
  /// throws std::invalid_argument on wrong length, std::out_of_range on
  /// out-of-alphabet values, std::logic_error before configure()+store().
  /// Exposed so serving layers can reject requests before consuming any
  /// query ordinal.
  void validate_query(std::span<const int> query) const;

  /// Energy/delay of one search op on the current geometry (Fig. 6 model).
  circuit::SearchCost search_cost() const;

  /// Cost of programming the whole stored database (erase + program-and-
  /// verify pulse trains per device, rows written sequentially). The
  /// write path is the price of reconfiguration: re-encoding the same
  /// data under a new metric pays this once.
  circuit::WriteCost program_cost() const;

  bool configured() const noexcept { return encoding_.has_value(); }

  /// Physical slots (live + removed). k and search validation are
  /// against live_count(); removed slots are reused by insert().
  std::size_t stored_count() const noexcept { return database_.size(); }

  /// Rows that compete in searches (stored_count() minus removed slots).
  std::size_t live_count() const noexcept { return live_rows_; }

  /// True when the slot holds live data (throws std::out_of_range on a
  /// bad index).
  bool row_live(std::size_t row) const {
    if (row >= live_.size()) throw std::out_of_range("row_live: row");
    return live_[row] != 0;
  }

  /// Per-slot post-decoder mask (1 = live) — what a multi-macro layer
  /// hands the masked LTA decision it runs over row_currents().
  std::span<const std::uint8_t> live_mask() const noexcept { return live_; }

  std::size_t dims() const noexcept {
    return database_.empty() ? 0 : database_.front().size();
  }

  const encode::CellEncoding& encoding() const;
  const encode::EncoderReport& encoder_report() const { return report_; }
  const csp::DistanceMatrix& distance_matrix() const;
  csp::DistanceMetric metric() const noexcept { return metric_; }
  int bits() const noexcept { return bits_; }

  /// Access to the simulated array (nullptr before store()).
  const circuit::CrossbarArray* array() const noexcept { return array_.get(); }

  const FerexOptions& options() const noexcept { return options_; }

  /// Complete mutable engine state for a durable snapshot. The byte
  /// format lives in serve/snapshot; the engine only exports and
  /// installs its state. The fabrication arrays (per-device Vth offsets
  /// and resistances) plus the RNG position make restoration exact:
  /// restored searches and every subsequent insert's variation draw are
  /// bit-identical to the uninterrupted engine.
  struct EngineState {
    std::vector<std::vector<int>> database;
    std::vector<std::uint8_t> live;
    util::Rng::State rng{};
    std::vector<double> vth_offsets;  ///< empty when nothing is stored
    std::vector<double> resistances;
  };

  /// Exports the current state (requires nothing; an unstored engine
  /// exports empty arrays).
  EngineState snapshot_state() const;

  /// Installs a previously exported state. Requires configure() with
  /// the same metric/bits/options the snapshot was taken under (the
  /// snapshot layer enforces this with typed errors; a raw size mismatch
  /// here throws std::invalid_argument). Rebuilds the array from the
  /// recorded fabrication arrays — no variation is redrawn.
  void restore_state(EngineState state);

  /// Tombstone compaction: drops removed slots and rebuilds as a fresh
  /// store() of the survivors on a fresh engine — the variation RNG is
  /// re-seeded from options().seed, so the result (currents, hits, and
  /// every subsequent insert) is bit-identical to configure()+store() of
  /// the surviving rows. Compacting an all-live index is a no-op; an
  /// all-removed index returns to the unstored state. Returns the number
  /// of slots reclaimed.
  std::size_t compact();

 private:
  void rebuild_array();
  /// Ladder + physical width shared by rebuild_array and restore_state.
  device::VoltageLadder make_ladder() const;
  std::size_t physical_dims() const;
  /// Independent comparator-noise generator for one query ordinal.
  util::Rng query_rng(std::uint64_t ordinal) const noexcept;
  /// Work-size gate for fanning one query's rows: circuit fidelity and
  /// at least kIntraQueryMinDevices devices stored.
  bool parallel_rows_worthwhile() const noexcept;
  /// Throws std::invalid_argument unless query has the stored logical
  /// dimensionality (pre-codec length), std::out_of_range unless every
  /// element is inside the configured alphabet.
  void check_query(std::span<const int> query) const;
  /// Program-and-verify cost of one already-programmed row.
  circuit::WriteCost row_write_cost(std::size_t row) const;
  /// Cost of the row-wide erase pulse (remove, and the erase half of an
  /// overwrite of live data).
  circuit::WriteCost row_erase_cost() const;
  /// The write driver every per-row cost model shares.
  circuit::WriteDriver write_driver() const;

  FerexOptions options_;
  util::Rng rng_;
  csp::DistanceMetric metric_ = csp::DistanceMetric::kHamming;
  int bits_ = 0;
  std::optional<csp::DistanceMatrix> dm_;
  std::optional<encode::CellEncoding> encoding_;
  std::optional<encode::ValueCodec> codec_;
  encode::EncoderReport report_{};
  std::vector<std::vector<int>> database_;
  std::vector<std::uint8_t> live_;  ///< per-slot liveness (1 = live);
                                    ///< survives configure() rebuilds
  std::size_t live_rows_ = 0;
  std::unique_ptr<circuit::CrossbarArray> array_;
  circuit::LtaCircuit lta_;
};

}  // namespace ferex::core
