// The ScL row pass behind CrossbarArray::search (see crossbar.hpp): one
// pass over a row's devices at one source-line potential, returning the
// row current and its conductance, and the margin pass that bounds where
// a row's current keeps one closed form. Private to the circuit module;
// tests include it to run every pass this build compiled, not only the
// one search() dispatches.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace ferex::circuit::detail {

/// One row of devices under one query: the query's per-column biases and
/// the row's per-device state, all indexed by device column.
struct RowDevices {
  const double* vgs;          ///< gate bias [V]
  const double* vds;          ///< drain bias [V]
  const double* gate_factor;  ///< exp(Vgs*a)
  const double* vth;          ///< programmed Vth [V]
  const double* inv_r;        ///< 1 / series R
  const double* vth_factor;   ///< exp(-Vth*a)
  std::size_t count;
};

/// Device constants shared by every cell of the array.
struct CellModel {
  double isat_a;
  double min_leak_a;
  double alpha;  ///< ln10 / SS [1/V]
};

/// Row current I(v) and its small-signal conductance G = -dI/dv >= 0 at
/// one ScL potential, and the part of G that devices on the subthreshold
/// exponential contribute (a*I of each).
struct RowPass {
  double current_a = 0.0;
  double conductance_s = 0.0;
  double exp_conductance_s = 0.0;
};

/// A pass at ScL potential `v_scl`, given scl_factor = exp(-v_scl*a).
using RowPassFn = RowPass (*)(const RowDevices& row, const CellModel& model,
                              double v_scl, double scl_factor);

/// The margin pass's constants, derived from the cell model.
struct MarginModel {
  double isat_a;
  double min_leak_a;
  double inv_alpha;     ///< 1/a [V]
  double floor_v;       ///< ln(Isat/Imin)/a: Vgs - Vth - v at the floor
  double ohmic_slope;   ///< 1/(Isat*a) [V/A]

  static MarginModel of(const CellModel& cell) {
    return {cell.isat_a, cell.min_leak_a, 1.0 / cell.alpha,
            std::log(cell.isat_a / cell.min_leak_a) / cell.alpha,
            1.0 / (cell.isat_a * cell.alpha)};
  }

  /// The guard on a safe potential, given the smallest positive drain
  /// bias of any search value and the largest series R of the devices it
  /// covers.
  /// Below Vds_min - 1/a no conducting device cuts off, and an exponential
  /// one stays limited by its FET: its (Vds - v)/R over term(0)*e^{-av}
  /// is (Vds - v)*e^{av}/(R*term(0)), which does not fall while
  /// v <= Vds - 1/a. Below Vds_min - Imin*R_max a device on the leakage
  /// floor stays off the ohmic branch, since (Vds - v)/R >= Imin.
  double guard_v(double vds_min, double r_max) const {
    const double fet_limited = vds_min - inv_alpha;
    const double off_ohmic = vds_min - min_leak_a * r_max;
    return fet_limited < off_ohmic ? fet_limited : off_ohmic;
  }
};

/// The lowest ScL potential v > 0 at which a device of `row` could leave
/// the form its current takes at v = 0 under the row's biases, by the
/// per-device rules (d = Vgs - Vth):
///   ohmic          d + (1 - (Vds/R)/Isat)/a, a log-free lower bound of
///                  d + ln(Isat*R/Vds)/a, where Isat*e^{a(d-v)} falls
///                  to Vds/R;
///   exponential    d + ln(Isat/Imin)/a, where it reaches the floor;
///   Isat-limited   -infinity (no bound is kept for it);
///   on the floor or cut off   +infinity.
/// Whether an exponential or floor device turns ohmic, and whether a
/// conducting device cuts off, is MarginModel::guard_v's to bound.
using MarginPassFn = double (*)(const RowDevices& row,
                                const MarginModel& model);

/// A compiled row pass, the margin pass of the same instruction set, and
/// the name row_pass_isa() gives them.
struct CompiledRowPass {
  const char* isa;
  RowPassFn run;
  MarginPassFn margin;
};

/// Every row pass compiled into this build that the CPU can run,
/// narrowest first: "portable" always, then "avx2" and "avx512" on
/// x86-64 where the run-time check for each holds. search() and
/// program_row() run the last; all of them give the same bits.
std::span<const CompiledRowPass> runnable_row_passes() noexcept;

}  // namespace ferex::circuit::detail
