// The 1FeFET1R crossbar array (Fig. 2a).
//
// Rows store data vectors (one vector per row, one cell of k FeFETs per
// vector element); search lines (SLs) and drain lines (DLs) are shared
// per FeFET column, source lines (ScLs) aggregate each row's current.
// A search applies the encoding's per-element gate voltages and drain
// multiples; the row current is the current-domain distance sum that the
// LTA then minimizes over rows.
//
// Device-to-device variation (Vth offset, series-R spread) is sampled per
// device at construction — it is a property of the fabricated array, not
// of an individual operation.
//
// Hot-path layout: search() is table lookups over flat arrays. The
// per-(search value, fefet) gate/drain biases are cached at construction,
// and the subthreshold exponential is factored as
//
//   Isat * 10^((Vgs - Vscl - Vth) / SS)
//     = Isat * exp(Vgs*a) * exp(-Vth*a) * exp(-Vscl*a),   a = ln10 / SS
//
// so exp(Vgs*a) is cached per search value, exp(-Vth*a) per device at
// program time, and exp(-Vscl*a) once per pass per row — the per-device
// inner loop is multiplies, compares and bit-mask selects over contiguous
// spans, with no branches.
//
// The row's ScL potential v = R_src * I(v) is solved by safeguarded
// Newton: I never rises with v, so f(v) = v - R_src*I(v) is strictly
// increasing with its root bracketed in [0, R_src*I(0)]; a step that
// would leave the bracket, or would not halve the step before last,
// bisects it instead. A Newton step under the 1e-7 V tolerance ends the
// solve without evaluating its point and reports the first-order current
// I(v) - G(v)*(v_next - v) there. Each row keeps a safe potential, set
// when it is programmed: below it no device's current changes form
// (constant, ohmic or exponential in v) under any search value.
// When the bracket lies below it, the solve's only pass is the first,
// at v = 0, and every later step evaluates the row's closed form
// I(v) = (I0 - E) - B*v + E*e^{-av} built from that pass. With the
// op-amp clamp that is 81-95% of solves over 512x64 rows of random 2-bit
// data, fewer over longer rows, whose bracket is wider (46-77% at
// 256x128). Every other row runs a pass per step: on average 1.0-2.0
// after the first with the clamp, 2.0-4.2 without it, where no solve
// closes, and up to about 16 on a bare 100 MOhm ScL. Each pass
// returns I, the row conductance G = -dI/dv and the part of G on the
// subthreshold exponential together, each summed in four lanes
// (device j into lane j mod 4 in device order, joined as
// (l0 + l1) + (l2 + l3)). One body builds three passes: a portable one in
// two 2-wide vectors (SSE2 at the baseline x86-64 ISA) and, on x86-64, an
// AVX2 one in one 4-wide vector and an AVX-512 one in one 8-wide vector,
// which adds a block's devices j..j+3 and then j+4..j+7 into the four
// lanes. search() runs the widest pass the CPU has (row_pass_isa() names
// the choice); the lane order makes all three give the same bits. It pads
// the query's spans to a multiple of eight devices with Vds = 0, so every
// row but the last one or few runs only full blocks. The safe potential
// comes from a margin pass per search value, built for the same three
// instruction sets; its lanes are independent and min is exact, so all
// three give the same value too.
// search_reference() re-derives every factor and bias per query and per
// row, and from them each row's safe potential, and then runs the same
// solve with the portable passes, so tests can assert the cached tables,
// the cached safe potentials and the wider passes reproduce it bit for
// bit on every row programmed since it was built or erased
// (circuit/row_pass.hpp lists the passes for tests that run each).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/interface.hpp"
#include "device/levels.hpp"
#include "device/one_fefet_one_r.hpp"
#include "device/variation.hpp"
#include "encode/encoding_table.hpp"
#include "util/rng.hpp"

namespace ferex::circuit {

namespace detail {
struct MarginModel;
}  // namespace detail

struct CrossbarConfig {
  device::CellParams cell{};
  device::FeFetParams fet{};
  device::VariationParams variation{};
  OpAmpParams opamp{};

  /// When false (ablation), the ScL is not held by the op-amp and the row
  /// current sees a much larger source impedance, corrupting Vds.
  bool use_opamp_clamp = true;

  /// Source impedance of the bare ScL when the clamp is disabled.
  double unclamped_source_res_ohm = 50e3;

  /// Program each device through the Preisach pulse model instead of
  /// directly setting Vth (slower; used to validate the write path).
  bool use_preisach_programming = false;

  /// Program-and-verify tolerance for the Preisach path.
  double program_tolerance_v = 5e-3;
};

/// Running totals of the safeguarded Newton ScL solves behind search()
/// (one solve per row per circuit-fidelity query). `iterations` counts
/// the passes over the row after the first at Vscl = 0: the Newton step
/// under the 1e-7 V tolerance that ends a solve runs no pass and is not
/// counted, and neither is a step of a solve that finishes on the row's
/// closed form. `closed_form` counts those solves, whose bracket lay
/// below the row's safe potential: with the op-amp clamp 46-98% of them
/// (81-95% over 512x64 rows), while a solve that falls back runs 1-2
/// passes after its first, so `iterations` per solve reads 0.02-1.1
/// there; without the clamp none closes, and a solve averages 2.0-4.2.
/// `non_converged` counts solves that hit the 60-step cap
/// without a step under the tolerance — surfaced through core/profiler
/// instead of silently capping.
struct SclSolveStats {
  std::uint64_t solves = 0;
  std::uint64_t iterations = 0;
  std::uint64_t closed_form = 0;
  std::uint64_t non_converged = 0;
};

/// The instruction set of the row pass CrossbarArray::search runs in this
/// process: "avx512" on an x86-64 CPU with AVX-512F, else "avx2" on one
/// with AVX2, else "portable" (2-wide vectors at the baseline ISA).
/// Chosen once per process from the CPU; every pass gives the same bits.
const char* row_pass_isa() noexcept;

class CrossbarArray {
 public:
  /// Builds an array of `rows` x `dims` cells wired for `encoding`.
  /// The ladder must offer at least encoding.ladder_levels() levels.
  CrossbarArray(std::size_t rows, std::size_t dims,
                const encode::CellEncoding& encoding,
                const device::VoltageLadder& ladder, CrossbarConfig config,
                util::Rng& rng);

  /// Snapshot-restore constructor: installs previously fabricated
  /// per-device arrays (row-major, `rows*dims*fefets` each) instead of
  /// drawing variation from an RNG, then rebuilds every derived table
  /// exactly as the drawing constructor does. Rows start live and
  /// erased; the caller re-programs (or erases) each slot from its
  /// snapshot. Throws std::invalid_argument on a size mismatch.
  CrossbarArray(std::size_t rows, std::size_t dims,
                const encode::CellEncoding& encoding,
                const device::VoltageLadder& ladder, CrossbarConfig config,
                std::vector<double> vth_offsets,
                std::vector<double> resistances);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t dims() const noexcept { return dims_; }
  std::size_t fefets_per_cell() const noexcept { return fefets_per_cell_; }
  const encode::CellEncoding& encoding() const noexcept { return encoding_; }
  const device::VoltageLadder& ladder() const noexcept { return ladder_; }
  const CrossbarConfig& config() const noexcept { return config_; }

  /// Nominal unit current I0 = vds_unit / R.
  double unit_current_a() const noexcept {
    return config_.cell.vds_unit_v / config_.cell.resistance_ohm;
  }

  /// Devices in the array — the work-size measure intra-query
  /// parallelism heuristics use.
  std::size_t device_count() const noexcept {
    return rows_ * dims_ * fefets_per_cell_;
  }

  /// Programs one row with a data vector (element values index the
  /// encoding's stored rows), and sets the row's safe ScL potential from
  /// its new devices. values.size() must equal dims().
  void program_row(std::size_t row, std::span<const int> values);

  /// Grows the array by one row and programs it — the streaming-insert
  /// write path (no re-store of existing rows). The new row's device
  /// variation is drawn from `rng` in the same per-device order the
  /// constructor uses, so an array built by N-row construction followed
  /// by appends is bit-identical (devices, currents, searches) to one
  /// constructed with all rows up front from the same generator.
  /// Validates before mutating: a throwing call leaves the array as-is.
  void append_row(std::span<const int> values, util::Rng& rng);

  /// Erases one row back to the constructor's erased state (every device
  /// at vth_max, nothing conducting) and masks it in the post-decoder:
  /// searches skip it (its reported current is +infinity) and the LTA
  /// never considers it. Erasing rather than merely masking matters
  /// physically — an erased row's near-zero current would otherwise win
  /// every LTA round. Throws std::out_of_range on a bad row index,
  /// std::logic_error when the row is already erased.
  void erase_row(std::size_t row);

  /// Reprograms one slot in place (program_row semantics — the device
  /// variation stays the slot's own) and marks it live again, whether it
  /// currently holds data or was erased. Validates before mutating.
  void overwrite_row(std::size_t row, std::span<const int> values);

  /// True when the row competes in searches (not erased).
  bool row_live(std::size_t row) const {
    if (row >= rows_) throw std::out_of_range("row_live: row");
    return live_[row] != 0;
  }

  /// Rows currently live (rows() counts physical slots).
  std::size_t live_rows() const noexcept { return live_rows_; }

  /// The post-decoder row mask (1 = live), indexed by physical row —
  /// what the LTA's masked decide overloads consume.
  std::span<const std::uint8_t> live_mask() const noexcept { return live_; }

  /// Stored element value of a row (what was programmed).
  int stored_value(std::size_t row, std::size_t dim) const {
    return stored_values_[row * dims_ + dim];
  }

  /// Runs the search phase for a query vector (element values index the
  /// encoding's search rows). Returns the per-row ScL currents [A].
  /// When `parallel_rows` is set, rows fan across the util::parallel_for
  /// worker pool; results are bit-identical either way (rows share no
  /// mutable state).
  std::vector<double> search(std::span<const int> query,
                             bool parallel_rows = false) const;

  /// Reference implementation of search(): biases re-derived from the
  /// encoding/ladder per query and per-device factors per row, each row's
  /// safe potential derived from those, no cached tables, and always the
  /// portable row and margin passes. Same row solve as the optimized
  /// kernel, so the two agree bit for bit on every row programmed since
  /// it was built or erased (search() gives a row that has not been no
  /// safe potential, and solves it by passes); retained to guard the
  /// tables, the safe potentials, the gather and the wider passes.
  std::vector<double> search_reference(std::span<const int> query) const;

  /// Ideal integer distance the array should report for (query, row),
  /// from the encoding alone (no devices) — the software reference.
  int nominal_distance(std::span<const int> query, std::size_t row) const;

  /// nominal_distance for every row at once: validates the query a single
  /// time, copies the per-dim LUT rows into one contiguous table, then
  /// gathers over the contiguous stored values into four partial sums —
  /// the nominal-fidelity hot path. Erased
  /// rows report INT_MAX (the integer analogue of search()'s +infinity
  /// disabled-branch sentinel).
  std::vector<int> nominal_distances(std::span<const int> query) const;

  /// Reference implementation of nominal_distances() (per-FeFET walk via
  /// the encoding's level matrices); retained to guard the LUT path.
  std::vector<int> nominal_distances_reference(
      std::span<const int> query) const;

  /// Snapshot of the ScL solve counters (search() only; the reference
  /// kernel does not count). Thread-safe.
  SclSolveStats scl_solve_stats() const noexcept;

  /// Zeroes the ScL solve counters.
  void reset_scl_solve_stats() const noexcept;

  /// Post-variation threshold voltage of one device (for tests/analysis).
  double device_vth(std::size_t row, std::size_t dim, std::size_t fefet) const;

  /// Post-variation series resistance of one device.
  double device_resistance(std::size_t row, std::size_t dim,
                           std::size_t fefet) const;

  /// Flat per-device fabrication arrays (row-major), as consumed by the
  /// restore constructor — what an index snapshot persists.
  std::span<const double> device_vth_offsets() const noexcept {
    return vth_offsets_;
  }
  std::span<const double> device_resistances() const noexcept {
    return resistances_;
  }

 private:
  /// Shared tail of both constructors: erased-state arrays and every
  /// derived table, computed from the already-set fabrication arrays.
  void init_derived_state();
  /// The margin pass's constants for this array's devices.
  detail::MarginModel margin_model() const;
  /// The row's margin from its programmed devices, by the widest margin
  /// pass the CPU has (see scl_margin_v_).
  double row_margin_of(std::size_t row) const;
  void validate_geometry() const;
  void validate_nominal_query(std::span<const int> query) const;
  std::size_t device_index(std::size_t row, std::size_t dim,
                           std::size_t fefet) const noexcept {
    return (row * dims_ + dim) * fefets_per_cell_ + fefet;
  }
  /// Residual impedance the row current develops the ScL potential over.
  double source_res_ohm() const noexcept {
    return config_.use_opamp_clamp ? config_.opamp.output_res_ohm
                                   : config_.unclamped_source_res_ohm;
  }

  std::size_t rows_;
  std::size_t dims_;
  std::size_t fefets_per_cell_;
  encode::CellEncoding encoding_;
  device::VoltageLadder ladder_;
  CrossbarConfig config_;

  std::vector<double> vth_offsets_;   ///< per-device D2D Vth offset
  std::vector<double> resistances_;   ///< per-device series R (with spread)
  std::vector<double> vth_;           ///< programmed Vth (incl. offset)
  std::vector<int> stored_values_;    ///< per (row, dim) element value
  std::vector<std::uint8_t> live_;    ///< post-decoder row mask (1 = live)
  std::size_t live_rows_ = 0;         ///< rows with live_ == 1

  // --- cached hot-path tables -------------------------------------------
  double subvt_alpha_ = 0.0;          ///< ln10 / SS [1/V]
  double erased_vth_factor_ = 0.0;    ///< exp(-vth_max*a), any erased device
  std::vector<double> bias_vgs_;      ///< [sch*fefets+i] gate bias [V]
  std::vector<double> bias_vds_;      ///< [sch*fefets+i] drain bias [V]
  std::vector<double> bias_gate_factor_;  ///< [sch*fefets+i] exp(Vgs*a)
  std::vector<double> inv_r_;         ///< per-device 1 / R
  std::vector<double> vth_factor_;    ///< per-device exp(-Vth*a)
  /// [sch*dims*fefets + column] the biases of a query holding search
  /// value sch in every dim, for the margin passes.
  std::vector<double> value_vgs_;
  std::vector<double> value_vds_;
  std::vector<double> value_gate_factor_;
  double vds_min_v_ = 0.0;            ///< smallest positive drain bias [V]
  /// Per row: the ScL potential below which no device of the row changes
  /// the form of its current under any search value, by the per-device
  /// rules (the smallest margin pass over the search values).
  /// Query-independent, so program_row sets it; a row built or erased and
  /// not programmed since holds -infinity and solves by passes. A row's
  /// safe potential is the lower of this and scl_guard_v_.
  std::vector<double> scl_margin_v_;
  /// The guard on every row's safe potential, over the array's largest
  /// series R (MarginModel::guard_v).
  double scl_guard_v_ = 0.0;

  mutable std::atomic<std::uint64_t> stat_solves_{0};
  mutable std::atomic<std::uint64_t> stat_iterations_{0};
  mutable std::atomic<std::uint64_t> stat_closed_form_{0};
  mutable std::atomic<std::uint64_t> stat_non_converged_{0};
};

}  // namespace ferex::circuit
