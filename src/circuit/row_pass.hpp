// The ScL row pass behind CrossbarArray::search (see crossbar.hpp): one
// pass over a row's devices at one source-line potential, returning the
// row current and its conductance. Private to the circuit module; tests
// include it to run every pass this build compiled, not only the one
// search() dispatches.
#pragma once

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
/// one ScL potential.
struct RowPass {
  double current_a = 0.0;
  double conductance_s = 0.0;
};

/// A pass at ScL potential `v_scl`, given scl_factor = exp(-v_scl*a).
using RowPassFn = RowPass (*)(const RowDevices& row, const CellModel& model,
                              double v_scl, double scl_factor);

/// A compiled row pass and the name row_pass_isa() gives it.
struct CompiledRowPass {
  const char* isa;
  RowPassFn run;
};

/// Every row pass compiled into this build that the CPU can run,
/// narrowest first: "portable" always, then "avx2" and "avx512" on
/// x86-64 where the run-time check for each holds. search() runs the
/// last; all of them give the same bits.
std::span<const CompiledRowPass> runnable_row_passes() noexcept;

}  // namespace ferex::circuit::detail
