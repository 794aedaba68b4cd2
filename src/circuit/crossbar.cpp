#include "circuit/crossbar.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "circuit/row_pass.hpp"
#include "device/preisach.hpp"
#include "util/parallel.hpp"

namespace ferex::circuit {

namespace {

// Gate factors grow as exp(Vgs * ln10/SS); clamp the exponent so extreme
// (sub-6 mV/dec) swing configurations saturate instead of producing inf
// (which would turn inf * underflowed-vth_factor into NaN).
inline double gate_factor_for(double vgs_v, double alpha) {
  return std::exp(std::min(vgs_v * alpha, 700.0));
}

// The ScL operating point v = R_src * I(v), found by safeguarded Newton.
// No cell's current rises with the ScL potential, so f(v) = v - R*I(v) is
// strictly increasing with its root in [0, R*I(0)]: each step goes to
// v - f/(1 + R*G), G = -dI/dv, or bisects the bracket when that would
// leave it. A Newton step under kSclToleranceV stops the solve without
// evaluating its point and reports the first-order current there. A step
// evaluates the row's closed form when no device can change the form of
// its current inside the bracket (see solve_scl), which with the op-amp
// clamp holds for most rows; otherwise it runs a pass. A solve that runs
// passes takes 1.0-2.0 after the first on average with the clamp and
// 2.0-4.2 without it, where R*G is large enough to throw a plain
// fixed-point iteration into oscillation; a bare 100 MOhm ScL takes up
// to about 16. Far from the root the subthreshold exponential makes
// Newton crawl by about SS/ln10 per step, so a step that is not under
// half the one before last bisects too (the classic rtsafe guard); at
// the clamped and ablation operating points it never fires.
constexpr int kMaxSclSteps = 60;
constexpr double kSclToleranceV = 1e-7;

// The widest pass's block. search() pads its query spans to a multiple of
// it, so that a row of any length runs only full blocks.
constexpr std::size_t kRowPadding = 8;

// The margin, and so the safe potential, of a row not programmed since
// it was built or erased: no bracket lies below it, so it solves by
// passes.
constexpr double kNoSafePotential = -std::numeric_limits<double>::infinity();

// W-lane double vectors (GCC/Clang vector extension) and the integer
// masks their comparisons give. Every lane operation is the IEEE
// operation the scalar code would do, so a lane's result depends neither
// on W nor on how the compiler schedules it. Selects go through bit
// masks, which both compilers accept and which compile without branches.
//
// W = 2 is an SSE2 register at the baseline x86-64 ISA; W = 4 is one AVX
// register and W = 8 one AVX-512 register, each instantiated only inside
// the pass whose target enables it. A vector wider than 16 bytes passed
// or returned by value changes the ABI of a function compiled without
// that ISA (-Wpsabi), so the helpers below take vectors by reference and
// hand results back through out-parameters, and reinterpret bits with
// __builtin_bit_cast, which is not a call.
template <int W>
struct Lanes;
template <>
struct Lanes<2> {
  using Vec = double __attribute__((vector_size(16)));
  using Mask = std::int64_t __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  using Vec = double __attribute__((vector_size(32)));
  using Mask = std::int64_t __attribute__((vector_size(32)));
};
template <>
struct Lanes<8> {
  using Vec = double __attribute__((vector_size(64)));
  using Mask = std::int64_t __attribute__((vector_size(64)));
};

template <int W>
[[gnu::always_inline]] inline void splat(double x,
                                         typename Lanes<W>::Vec& out) {
  for (int i = 0; i < W; ++i) out[i] = x;
}
template <typename Vec>
[[gnu::always_inline]] inline void load(const double* p, Vec& out) {
  std::memcpy(&out, p, sizeof out);
}
/// Lane-wise `out = m ? a : b` for comparison masks (all-ones or
/// all-zeros).
template <typename Vec, typename Mask>
[[gnu::always_inline]] inline void select(const Mask& m, const Vec& a,
                                          const Vec& b, Vec& out) {
  out = __builtin_bit_cast(Vec, (__builtin_bit_cast(Mask, a) & m) |
                                    (__builtin_bit_cast(Mask, b) & ~m));
}
/// Lane-wise `out = m ? a : 0`.
template <typename Vec, typename Mask>
[[gnu::always_inline]] inline void keep(const Mask& m, const Vec& a,
                                        Vec& out) {
  out = __builtin_bit_cast(Vec, __builtin_bit_cast(Mask, a) & m);
}
/// `sum += v's low half`, then `sum += its high half`.
template <typename Half, typename Vec>
[[gnu::always_inline]] inline void add_halves(const Vec& v, Half& sum) {
  Half half{};
  std::memcpy(&half, &v, sizeof half);
  sum += half;
  std::memcpy(&half, reinterpret_cast<const char*>(&v) + sizeof half,
              sizeof half);
  sum += half;
}
/// The smallest of v's lanes, as vector compares: the halves meet lane by
/// lane down to one pair, whose lanes meet by swapping them.
template <int W>
[[gnu::always_inline]] inline double min_lane(
    const typename Lanes<W>::Vec& v) {
  if constexpr (W == 2) {
    using Vec = typename Lanes<2>::Vec;
    using Mask = typename Lanes<2>::Mask;
    const Vec swapped = {v[1], v[0]};
    Vec low{};
    select(__builtin_bit_cast(Mask, swapped < v), swapped, v, low);
    return low[0];
  } else {
    using Half = typename Lanes<W / 2>::Vec;
    using Mask = typename Lanes<W / 2>::Mask;
    Half lo{}, hi{};
    std::memcpy(&lo, &v, sizeof lo);
    std::memcpy(&hi, reinterpret_cast<const char*>(&v) + sizeof lo,
                sizeof hi);
    select(__builtin_bit_cast(Mask, hi < lo), hi, lo, lo);
    return min_lane<W / 2>(lo);
  }
}

using detail::CellModel;
using detail::RowDevices;
using detail::RowPass;
using detail::RowPassFn;

/// Per-pass constants, splatted once per pass.
template <int W>
struct PassConstants {
  typename Lanes<W>::Vec v_scl, scl_factor, isat, min_leak, alpha;
};

// W cells' current I and conductance G = -dI/dv, for devices j .. j+W-1
// of `row`, with the subthreshold exponential in factored form (see the
// header comment): gate_factor = exp(Vgs*a), vth_factor = exp(-Vth*a),
// scl_factor = exp(-Vscl*a). Per cell,
//   I = 0 when cut off (Vds_eff <= 0), else
//     = min(Vgs_eff >= Vth ? Isat : max(term, leak), Vds_eff / R)
// and G is 1/R ohmic, a*term subthreshold, and 0 saturated, on the
// leakage floor or cut off; `exp_conductance` is G where the cell is not
// ohmic, which is a*term on the exponential and 0 elsewhere. Every select
// takes one comparison's mask: GCC 12 scalarizes a select on a combined
// mask into per-lane branches. No multiply feeds an add, so there is
// nothing to fuse into an FMA.
template <int W>
[[gnu::always_inline]] inline void cells(
    const RowDevices& row, std::size_t j, const PassConstants<W>& k,
    typename Lanes<W>::Vec& current, typename Lanes<W>::Vec& conductance,
    typename Lanes<W>::Vec& exp_conductance) {
  using Vec = typename Lanes<W>::Vec;
  using Mask = typename Lanes<W>::Mask;
  Vec vgs{}, vds{}, gate{}, vth{}, inv_r{}, vth_factor{};
  load(row.vgs + j, vgs);
  load(row.vds + j, vds);
  load(row.gate_factor + j, gate);
  load(row.vth + j, vth);
  load(row.inv_r + j, inv_r);
  load(row.vth_factor + j, vth_factor);
  const Vec vgs_eff = vgs - k.v_scl;
  const Vec vds_eff = vds - k.v_scl;
  const Vec term = k.isat * ((gate * vth_factor) * k.scl_factor);
  const auto subthreshold = __builtin_bit_cast(Mask, vgs_eff < vth);
  const auto above_floor = __builtin_bit_cast(Mask, k.min_leak < term);
  Vec fet{}, fet_conductance{};
  select(above_floor, term, k.min_leak, fet);
  select(subthreshold, fet, k.isat, fet);
  keep(above_floor, term, fet_conductance);
  keep(subthreshold, k.alpha * fet_conductance, fet_conductance);
  const Vec ohm = vds_eff * inv_r;
  const auto ohmic = __builtin_bit_cast(Mask, ohm < fet);
  const auto conducting = __builtin_bit_cast(Mask, Vec{} < vds_eff);
  select(ohmic, ohm, fet, current);
  select(ohmic, inv_r, fet_conductance, conductance);
  keep(conducting, current, current);
  keep(conducting, conductance, conductance);
  keep(__builtin_bit_cast(Mask, fet <= ohm), conductance, exp_conductance);
}

/// A pass's four sum lanes, for current, conductance and exponential
/// conductance, in 4/N registers of N = min(W, 4) lanes; register r holds
/// lanes r*N onwards.
template <int W>
struct LaneSums {
  static constexpr int kWidth = W < 4 ? W : 4;
  typename Lanes<kWidth>::Vec current[4 / kWidth] = {};
  typename Lanes<kWidth>::Vec conductance[4 / kWidth] = {};
  typename Lanes<kWidth>::Vec exp_conductance[4 / kWidth] = {};
};

// Adds the block of max(W, 4) devices from device j on into the lane
// sums, device j into lane j mod 4 in device order. W <= 4 adds each
// register of cells into its own lanes. W = 8 adds devices j .. j+3 (the
// low half) and then j+4 .. j+7 (the high half) into the one four-lane
// register, which is the order a four-device block gives them.
template <int W>
[[gnu::always_inline]] inline void add_block(const RowDevices& row,
                                             std::size_t j,
                                             const PassConstants<W>& k,
                                             LaneSums<W>& sums) {
  typename Lanes<W>::Vec current{}, conductance{}, exp_conductance{};
  if constexpr (W <= 4) {
    for (std::size_t r = 0; r < 4 / W; ++r) {
      cells(row, j + r * W, k, current, conductance, exp_conductance);
      sums.current[r] += current;
      sums.conductance[r] += conductance;
      sums.exp_conductance[r] += exp_conductance;
    }
  } else {
    cells(row, j, k, current, conductance, exp_conductance);
    add_halves(current, sums.current[0]);
    add_halves(conductance, sums.conductance[0]);
    add_halves(exp_conductance, sums.exp_conductance[0]);
  }
}

// One pass over a row in blocks of max(W, 4) devices. Device j adds into
// lane j mod 4 in device order, and the lanes join as (l0 + l1) +
// (l2 + l3), so every W gives the same bits. A ragged tail is
// zero-padded to one block: a padded cell has Vds = 0, is cut off at any
// v >= 0 and adds exactly +0. The tail is copied one device at a time
// under a fixed trip count, which compiles to moves rather than to a
// memmove call that would spill the splatted constants. search() pads
// its query spans, so only its last row or few take this path.
template <int W>
[[gnu::always_inline]] inline RowPass row_pass_body(const RowDevices& row,
                                                    const CellModel& model,
                                                    double v_scl,
                                                    double scl_factor) {
  constexpr std::size_t kBlock = W < 4 ? 4 : W;
  PassConstants<W> k{};
  splat<W>(v_scl, k.v_scl);
  splat<W>(scl_factor, k.scl_factor);
  splat<W>(model.isat_a, k.isat);
  splat<W>(model.min_leak_a, k.min_leak);
  splat<W>(model.alpha, k.alpha);
  LaneSums<W> sums;
  const std::size_t full = row.count - row.count % kBlock;
  for (std::size_t j = 0; j < full; j += kBlock) add_block(row, j, k, sums);
  if (full < row.count) {
    double tail[6][kBlock] = {};
    const double* const spans[6] = {row.vgs, row.vds, row.gate_factor,
                                    row.vth, row.inv_r, row.vth_factor};
    for (std::size_t i = 0; i < kBlock; ++i) {
      if (full + i == row.count) break;
      for (std::size_t s = 0; s < 6; ++s) tail[s][i] = spans[s][full + i];
    }
    const RowDevices padded{tail[0], tail[1], tail[2],
                            tail[3], tail[4], tail[5], kBlock};
    add_block(padded, 0, k, sums);
  }
  // The registers hold lanes 0-3 in order.
  double i[4] = {}, g[4] = {}, e[4] = {};
  std::memcpy(i, sums.current, sizeof i);
  std::memcpy(g, sums.conductance, sizeof g);
  std::memcpy(e, sums.exp_conductance, sizeof e);
  return {(i[0] + i[1]) + (i[2] + i[3]), (g[0] + g[1]) + (g[2] + g[3]),
          (e[0] + e[1]) + (e[2] + e[3])};
}

/// The margin pass's constants, splatted once per pass.
template <int W>
struct MarginConstants {
  typename Lanes<W>::Vec isat, min_leak, inv_alpha, floor_v, ohmic_slope,
      above, below;
};

// W cells' margins (see detail::MarginPassFn), for devices j .. j+W-1 of
// `row`. Each cell's regime is decided by the compares a row pass makes
// at Vscl = 0, on the same operands, so the margin classifies every cell
// as the first pass of a solve does. The ohmic bound is evaluated as
// (d + 1/a) - (Vds/R)/(Isat*a), which the exponential lanes share as
// (d + ln(Isat/Imin)/a) - 0. Every select takes one comparison's mask,
// and the one multiply that feeds a subtraction passes through a select
// first, so there is nothing to fuse into an FMA.
template <int W>
[[gnu::always_inline]] inline void margin_cells(const RowDevices& row,
                                                std::size_t j,
                                                const MarginConstants<W>& k,
                                                typename Lanes<W>::Vec&
                                                    margin) {
  using Vec = typename Lanes<W>::Vec;
  using Mask = typename Lanes<W>::Mask;
  Vec vgs{}, vds{}, gate{}, vth{}, inv_r{}, vth_factor{};
  load(row.vgs + j, vgs);
  load(row.vds + j, vds);
  load(row.gate_factor + j, gate);
  load(row.vth + j, vth);
  load(row.inv_r + j, inv_r);
  load(row.vth_factor + j, vth_factor);
  const Vec term = k.isat * (gate * vth_factor);
  const auto subthreshold = __builtin_bit_cast(Mask, vgs < vth);
  const auto above_floor = __builtin_bit_cast(Mask, k.min_leak < term);
  Vec fet{};
  select(above_floor, term, k.min_leak, fet);
  select(subthreshold, fet, k.isat, fet);
  const Vec ohm = vds * inv_r;
  const auto ohmic = __builtin_bit_cast(Mask, ohm < fet);
  const auto conducting = __builtin_bit_cast(Mask, Vec{} < vds);
  Vec offset{}, slope{};
  select(ohmic, k.inv_alpha, k.floor_v, offset);
  keep(ohmic, ohm * k.ohmic_slope, slope);
  const Vec bound = ((vgs - vth) + offset) - slope;
  select(above_floor, bound, k.above, margin);
  select(subthreshold, margin, k.below, margin);
  select(ohmic, bound, margin, margin);
  select(conducting, margin, k.above, margin);
}

// The smallest margin over a row, in blocks of W devices. Each lane
// keeps its own minimum and the lanes meet in halves; min is exact, so
// every W gives the same result. A ragged tail is zero-padded to one
// block: a padded cell has Vds = 0, is cut off and bounds nothing.
template <int W>
[[gnu::always_inline]] inline double margin_body(const RowDevices& row,
                                                 const detail::MarginModel&
                                                     model) {
  using Vec = typename Lanes<W>::Vec;
  using Mask = typename Lanes<W>::Mask;
  MarginConstants<W> k{};
  splat<W>(model.isat_a, k.isat);
  splat<W>(model.min_leak_a, k.min_leak);
  splat<W>(model.inv_alpha, k.inv_alpha);
  splat<W>(model.floor_v, k.floor_v);
  splat<W>(model.ohmic_slope, k.ohmic_slope);
  splat<W>(std::numeric_limits<double>::infinity(), k.above);
  splat<W>(-std::numeric_limits<double>::infinity(), k.below);
  Vec low = k.above;
  Vec margin{};
  const std::size_t full = row.count - row.count % W;
  for (std::size_t j = 0; j < full; j += W) {
    margin_cells(row, j, k, margin);
    select(__builtin_bit_cast(Mask, margin < low), margin, low, low);
  }
  if (full < row.count) {
    double tail[6][W] = {};
    const double* const spans[6] = {row.vgs, row.vds, row.gate_factor,
                                    row.vth, row.inv_r, row.vth_factor};
    for (std::size_t i = 0; i < W; ++i) {
      if (full + i == row.count) break;
      for (std::size_t s = 0; s < 6; ++s) tail[s][i] = spans[s][full + i];
    }
    const RowDevices padded{tail[0], tail[1], tail[2],
                            tail[3], tail[4], tail[5], W};
    margin_cells(padded, 0, k, margin);
    select(__builtin_bit_cast(Mask, margin < low), margin, low, low);
  }
  return min_lane<W>(low);
}

// The portable pass: two 2-wide registers per block of four devices,
// SSE2 at the baseline x86-64 ISA. search_reference() always runs it,
// and its margin pass.
RowPass row_pass_portable(const RowDevices& row, const CellModel& model,
                          double v_scl, double scl_factor) {
  return row_pass_body<2>(row, model, v_scl, scl_factor);
}

double row_margin_portable(const RowDevices& row,
                           const detail::MarginModel& model) {
  return margin_body<2>(row, model);
}

#if defined(__x86_64__)
// The same bodies in one 256-bit register per block of four, and in one
// 512-bit register per block of eight. Each target names exactly the
// features runnable_row_passes() checks for before it lists the pass.
// avx512f enables FMA, but no multiply in either body feeds an add (and
// the library builds with -ffp-contract=off besides), so nothing is
// fused and every lane rounds as in the portable pass.
__attribute__((target("avx2"))) RowPass row_pass_avx2(
    const RowDevices& row, const CellModel& model, double v_scl,
    double scl_factor) {
  return row_pass_body<4>(row, model, v_scl, scl_factor);
}

__attribute__((target("avx2"))) double row_margin_avx2(
    const RowDevices& row, const detail::MarginModel& model) {
  return margin_body<4>(row, model);
}

__attribute__((target("avx512f"))) RowPass row_pass_avx512(
    const RowDevices& row, const CellModel& model, double v_scl,
    double scl_factor) {
  return row_pass_body<8>(row, model, v_scl, scl_factor);
}

__attribute__((target("avx512f"))) double row_margin_avx512(
    const RowDevices& row, const detail::MarginModel& model) {
  return margin_body<8>(row, model);
}
#endif

struct SclSolve {
  double current_a = 0.0;
  int passes = 0;  ///< passes over the row after the first
  bool closed_form = false;
  bool converged = true;
};

// The safeguarded Newton solve (see kMaxSclSteps), each pass over the
// row run by `row_pass`. A Newton step that would move v by less than
// kSclToleranceV ends the solve without evaluating its point: it reports
// the first-order current I(v) - G(v)*(v_next - v), which is v_next/R in
// exact arithmetic. A bisection step converges when it moved v by less
// than the tolerance, and reports the current it evaluated.
//
// When the bracket [0, R*I(0)] lies at or below `safe_v`, the row's
// potential below which no device's current changes form, each device
// keeps the form it has at v = 0 over the whole bracket: a constant, an
// ohmic (Vds - v)/R, or an exponential term(0)*e^{-av}. The row current
// is then I(v) = (I0 - E) - B*v + E*e^{-av} and G(v) = B + Gexp*e^{-av},
// with Gexp the first pass's exponential conductance, E = Gexp/a and
// B = G0 - Gexp, so every later step evaluates that closed form, one
// exp, instead of a pass over the devices. Every other row runs a pass
// per step.
SclSolve solve_scl(const RowDevices& row, const CellModel& model,
                   double source_res, double safe_v, RowPassFn row_pass) {
  SclSolve solve;
  RowPass pass = row_pass(row, model, 0.0, 1.0);
  if (source_res <= 0.0) {
    solve.current_a = pass.current_a;
    return solve;
  }
  double lo = 0.0;
  double hi = source_res * pass.current_a;
  solve.closed_form = hi <= safe_v;
  const double exp_conductance = pass.exp_conductance_s;
  const double exp_amplitude = exp_conductance / model.alpha;
  const double ohmic_conductance = pass.conductance_s - exp_conductance;
  const double constant_current = pass.current_a - exp_amplitude;
  double v_scl = 0.0;
  double last_step = std::numeric_limits<double>::infinity();
  double step_before = last_step;
  solve.converged = false;
  for (int step = 0; step < kMaxSclSteps; ++step) {
    double v_next = v_scl - (v_scl - source_res * pass.current_a) /
                                (1.0 + source_res * pass.conductance_s);
    if (!(v_next >= lo && v_next <= hi) ||
        std::abs(v_next - v_scl) > 0.5 * step_before) {
      v_next = 0.5 * (lo + hi);
    } else if (std::abs(v_next - v_scl) < kSclToleranceV) {
      solve.current_a = pass.current_a - pass.conductance_s * (v_next - v_scl);
      solve.converged = true;
      return solve;
    }
    // exp(-Vscl*a) once per step covers the whole row.
    const double scl_factor = std::exp(-v_next * model.alpha);
    if (solve.closed_form) {
      pass.current_a = (constant_current - ohmic_conductance * v_next) +
                       exp_amplitude * scl_factor;
      pass.conductance_s = ohmic_conductance + exp_conductance * scl_factor;
    } else {
      pass = row_pass(row, model, v_next, scl_factor);
      ++solve.passes;
    }
    if (v_next - source_res * pass.current_a < 0.0) {
      lo = v_next;
    } else {
      hi = v_next;
    }
    step_before = last_step;
    last_step = std::abs(v_next - v_scl);
    v_scl = v_next;
    if (last_step < kSclToleranceV) {
      solve.converged = true;
      break;
    }
  }
  solve.current_a = pass.current_a;
  return solve;
}

// A row's margin: the smallest margin of its devices under every search
// value's biases. `first` holds search value 0's biases, and value s's
// follow s*first.count columns on. The row's safe potential is the lower
// of this and the array's guard (MarginModel::guard_v).
double row_margin(const RowDevices& first, std::size_t values,
                  const detail::MarginModel& model,
                  detail::MarginPassFn margin) {
  double safe = std::numeric_limits<double>::infinity();
  RowDevices row = first;
  for (std::size_t s = 0; s < values; ++s) {
    safe = std::min(safe, margin(row, model));
    row.vgs += row.count;
    row.vds += row.count;
    row.gate_factor += row.count;
  }
  return safe;
}

}  // namespace

namespace detail {

std::span<const CompiledRowPass> runnable_row_passes() noexcept {
  static const auto table = [] {
    std::array<CompiledRowPass, 3> passes{};
    std::size_t count = 0;
    passes[count++] = {"portable", &row_pass_portable, &row_margin_portable};
#if defined(__x86_64__)
    __builtin_cpu_init();  // in case this first runs from a static initializer
    if (__builtin_cpu_supports("avx2")) {
      passes[count++] = {"avx2", &row_pass_avx2, &row_margin_avx2};
    }
    if (__builtin_cpu_supports("avx512f")) {
      passes[count++] = {"avx512", &row_pass_avx512, &row_margin_avx512};
    }
#endif
    return std::pair{passes, count};
  }();
  return {table.first.data(), table.second};
}

}  // namespace detail

const char* row_pass_isa() noexcept {
  return detail::runnable_row_passes().back().isa;
}

CrossbarArray::CrossbarArray(std::size_t rows, std::size_t dims,
                             const encode::CellEncoding& encoding,
                             const device::VoltageLadder& ladder,
                             CrossbarConfig config, util::Rng& rng)
    : rows_(rows),
      dims_(dims),
      fefets_per_cell_(encoding.fefets_per_cell()),
      encoding_(encoding),
      ladder_(ladder),
      config_(config) {
  validate_geometry();
  const std::size_t devices = rows * dims * fefets_per_cell_;
  const device::VariationModel variation(config_.variation);
  vth_offsets_.resize(devices);
  resistances_.resize(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    vth_offsets_[d] = variation.sample_vth_offset(rng);
    resistances_[d] =
        config_.cell.resistance_ohm * variation.sample_r_multiplier(rng);
  }
  init_derived_state();
}

CrossbarArray::CrossbarArray(std::size_t rows, std::size_t dims,
                             const encode::CellEncoding& encoding,
                             const device::VoltageLadder& ladder,
                             CrossbarConfig config,
                             std::vector<double> vth_offsets,
                             std::vector<double> resistances)
    : rows_(rows),
      dims_(dims),
      fefets_per_cell_(encoding.fefets_per_cell()),
      encoding_(encoding),
      ladder_(ladder),
      config_(config),
      vth_offsets_(std::move(vth_offsets)),
      resistances_(std::move(resistances)) {
  validate_geometry();
  const std::size_t devices = rows * dims * fefets_per_cell_;
  if (vth_offsets_.size() != devices || resistances_.size() != devices) {
    throw std::invalid_argument(
        "CrossbarArray: fabrication arrays do not match the geometry");
  }
  init_derived_state();
}

void CrossbarArray::validate_geometry() const {
  if (rows_ == 0 || dims_ == 0) {
    throw std::invalid_argument("CrossbarArray: empty geometry");
  }
  if (ladder_.levels() < encoding_.ladder_levels()) {
    throw std::invalid_argument(
        "CrossbarArray: ladder has fewer levels than the encoding needs");
  }
  if (ladder_.vth(ladder_.levels() - 1) > config_.fet.vth_max_v) {
    throw std::invalid_argument(
        "CrossbarArray: ladder's highest Vth exceeds the device's "
        "programmable window — use a smaller step");
  }
}

void CrossbarArray::init_derived_state() {
  const std::size_t devices = rows_ * dims_ * fefets_per_cell_;
  // Erased state: highest threshold (nothing conducts until programmed).
  vth_.assign(devices, config_.fet.vth_max_v);
  stored_values_.assign(rows_ * dims_, 0);
  live_.assign(rows_, 1);
  live_rows_ = rows_;

  subvt_alpha_ = std::log(10.0) / (config_.fet.ss_mv_per_dec * 1e-3);
  erased_vth_factor_ = std::exp(-config_.fet.vth_max_v * subvt_alpha_);
  inv_r_.resize(devices);
  double r_max = 0.0;
  for (std::size_t d = 0; d < devices; ++d) {
    inv_r_[d] = 1.0 / resistances_[d];
    r_max = std::max(r_max, resistances_[d]);
  }
  vth_factor_.assign(devices, erased_vth_factor_);

  // Per-(search value, fefet) bias tables: search() copies rows out of
  // these instead of chasing encoding/ladder indirections per query.
  const std::size_t search_entries =
      encoding_.search_count() * fefets_per_cell_;
  bias_vgs_.resize(search_entries);
  bias_vds_.resize(search_entries);
  bias_gate_factor_.resize(search_entries);
  for (std::size_t sch = 0; sch < encoding_.search_count(); ++sch) {
    for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
      const std::size_t e = sch * fefets_per_cell_ + i;
      const int level = encoding_.search_level(sch, i);
      bias_vgs_[e] = ladder_.vsearch(static_cast<std::size_t>(level));
      bias_vds_[e] = config_.cell.vds_unit_v * encoding_.vds_multiple(sch, i);
      bias_gate_factor_[e] = gate_factor_for(bias_vgs_[e], subvt_alpha_);
    }
  }

  // The same biases spread over a whole row once per search value, for
  // the margin passes behind each row's safe ScL potential.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  value_vgs_.resize(encoding_.search_count() * per_row);
  value_vds_.resize(value_vgs_.size());
  value_gate_factor_.resize(value_vgs_.size());
  vds_min_v_ = std::numeric_limits<double>::infinity();
  for (std::size_t sch = 0; sch < encoding_.search_count(); ++sch) {
    for (std::size_t col = 0; col < per_row; ++col) {
      const std::size_t e = sch * fefets_per_cell_ + col % fefets_per_cell_;
      value_vgs_[sch * per_row + col] = bias_vgs_[e];
      value_vds_[sch * per_row + col] = bias_vds_[e];
      value_gate_factor_[sch * per_row + col] = bias_gate_factor_[e];
    }
  }
  for (const double vds : bias_vds_) {
    if (vds > 0.0) vds_min_v_ = std::min(vds_min_v_, vds);
  }
  scl_guard_v_ = margin_model().guard_v(vds_min_v_, r_max);
  // Every caller programs or erases each slot before it searches, so the
  // erased rows get no margin pass here: without a safe potential they
  // would solve by passes.
  scl_margin_v_.assign(rows_, kNoSafePotential);
}

detail::MarginModel CrossbarArray::margin_model() const {
  return detail::MarginModel::of(
      {config_.fet.isat_a, config_.fet.min_leak_a, subvt_alpha_});
}

double CrossbarArray::row_margin_of(std::size_t row) const {
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t base = row * per_row;
  return row_margin(
      {value_vgs_.data(), value_vds_.data(), value_gate_factor_.data(),
       vth_.data() + base, inv_r_.data() + base, vth_factor_.data() + base,
       per_row},
      encoding_.search_count(), margin_model(),
      detail::runnable_row_passes().back().margin);
}

void CrossbarArray::program_row(std::size_t row, std::span<const int> values) {
  if (row >= rows_) throw std::out_of_range("program_row: row");
  if (values.size() != dims_) {
    throw std::invalid_argument("program_row: values.size() != dims");
  }
  for (int v : values) {
    if (v < 0 || static_cast<std::size_t>(v) >= encoding_.stored_count()) {
      throw std::out_of_range("program_row: element value out of range");
    }
  }
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int value = values[dim];
    stored_values_[row * dims_ + dim] = value;
    for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
      const int level = encoding_.store_level(static_cast<std::size_t>(value), i);
      const double target = ladder_.vth(static_cast<std::size_t>(level));
      const std::size_t dev = device_index(row, dim, i);
      double programmed = target;
      if (config_.use_preisach_programming) {
        device::PreisachParams pp;
        pp.vth_low_v = config_.fet.vth_min_v;
        pp.vth_high_v = config_.fet.vth_max_v;
        device::PreisachFeFet fet(pp);
        fet.program_to_vth(target, config_.program_tolerance_v);
        programmed = fet.vth();
      }
      // D2D variation perturbs where the device lands around the target.
      vth_[dev] = programmed + vth_offsets_[dev];
      vth_factor_[dev] = std::exp(-vth_[dev] * subvt_alpha_);
    }
  }
  scl_margin_v_[row] = row_margin_of(row);
}

void CrossbarArray::append_row(std::span<const int> values, util::Rng& rng) {
  // program_row validates values again, but only after the per-device
  // arrays have grown — check here first so a bad vector cannot leave a
  // half-appended erased row behind.
  if (values.size() != dims_) {
    throw std::invalid_argument("append_row: values.size() != dims");
  }
  for (int v : values) {
    if (v < 0 || static_cast<std::size_t>(v) >= encoding_.stored_count()) {
      throw std::out_of_range("append_row: element value out of range");
    }
  }
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t old_devices = rows_ * per_row;
  const device::VariationModel variation(config_.variation);
  vth_offsets_.resize(old_devices + per_row);
  resistances_.resize(old_devices + per_row);
  // Same draw order as the constructor (Vth offset then R multiplier per
  // device, devices in row-major order) — appending continues the exact
  // variation sequence a larger construction would have drawn.
  for (std::size_t d = old_devices; d < old_devices + per_row; ++d) {
    vth_offsets_[d] = variation.sample_vth_offset(rng);
    resistances_[d] =
        config_.cell.resistance_ohm * variation.sample_r_multiplier(rng);
  }
  vth_.resize(old_devices + per_row, config_.fet.vth_max_v);
  vth_factor_.resize(old_devices + per_row, erased_vth_factor_);
  inv_r_.resize(old_devices + per_row);
  double r_max = 0.0;
  for (std::size_t d = old_devices; d < old_devices + per_row; ++d) {
    inv_r_[d] = 1.0 / resistances_[d];
    r_max = std::max(r_max, resistances_[d]);
  }
  stored_values_.resize((rows_ + 1) * dims_, 0);
  // The guard falls as the largest R rises, so the lower of the two
  // guards is the grown array's.
  scl_guard_v_ =
      std::min(scl_guard_v_, margin_model().guard_v(vds_min_v_, r_max));
  scl_margin_v_.push_back(kNoSafePotential);  // program_row sets it
  live_.push_back(1);
  ++live_rows_;
  ++rows_;
  program_row(rows_ - 1, values);
}

void CrossbarArray::erase_row(std::size_t row) {
  if (row >= rows_) throw std::out_of_range("erase_row: row");
  if (live_[row] == 0) {
    throw std::logic_error("erase_row: row already erased");
  }
  // Back to the exact constructor state: vth_max with no D2D offset (the
  // offset perturbs where programming lands, not the saturated erased
  // polarization), so an erase-then-reprogram sequence is bit-identical
  // to programming a never-touched slot.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t base = row * per_row;
  for (std::size_t j = 0; j < per_row; ++j) {
    vth_[base + j] = config_.fet.vth_max_v;
    vth_factor_[base + j] = erased_vth_factor_;
  }
  scl_margin_v_[row] = kNoSafePotential;
  live_[row] = 0;
  --live_rows_;
}

void CrossbarArray::overwrite_row(std::size_t row,
                                  std::span<const int> values) {
  // program_row validates the index and every value before its first
  // write, so a throwing overwrite leaves the slot (and its liveness)
  // untouched.
  program_row(row, values);
  if (live_[row] == 0) {
    live_[row] = 1;
    ++live_rows_;
  }
}

std::vector<double> CrossbarArray::search(std::span<const int> query,
                                          bool parallel_rows) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("search: query.size() != dims");
  }
  // Resolve the per-device-column biases by copying rows of the cached
  // tables — no encoding/ladder indirection on the query path. The spans
  // run on to a multiple of kRowPadding devices with Vds = 0 there.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t padded_row =
      (per_row + kRowPadding - 1) / kRowPadding * kRowPadding;
  std::vector<double> vgs(padded_row);
  std::vector<double> vds(padded_row);
  std::vector<double> gate_factors(padded_row);
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= encoding_.search_count()) {
      throw std::out_of_range("search: query value out of range");
    }
    const std::size_t src = static_cast<std::size_t>(qv) * fefets_per_cell_;
    const std::size_t dst = dim * fefets_per_cell_;
    std::copy_n(bias_vgs_.data() + src, fefets_per_cell_, vgs.data() + dst);
    std::copy_n(bias_vds_.data() + src, fefets_per_cell_, vds.data() + dst);
    std::copy_n(bias_gate_factor_.data() + src, fefets_per_cell_,
                gate_factors.data() + dst);
  }
  const CellModel model{config_.fet.isat_a, config_.fet.min_leak_a,
                        subvt_alpha_};
  const double source_res = source_res_ohm();
  const RowPassFn row_pass = detail::runnable_row_passes().back().run;
  std::vector<double> currents(rows_);
  std::vector<SclSolve> solves(rows_);
  const auto run_row = [&](std::size_t row) {
    if (live_[row] == 0) {
      // Erased row: branch disabled in the post-decoder. No solve runs
      // (and none is counted); the +infinity sentinel can never win a
      // minimum-current comparison even for callers that ignore masks.
      currents[row] = std::numeric_limits<double>::infinity();
      return;
    }
    // A padded row reads on into the next row's devices, which sit where
    // the query has Vds = 0, so they are cut off and add exactly +0, as a
    // zero-padded tail does. Only the last rows, where that read would
    // run off the device arrays, keep their ragged tail.
    const std::size_t base = row * per_row;
    const std::size_t count =
        base + padded_row <= device_count() ? padded_row : per_row;
    solves[row] = solve_scl(
        {vgs.data(), vds.data(), gate_factors.data(), vth_.data() + base,
         inv_r_.data() + base, vth_factor_.data() + base, count},
        model, source_res, std::min(scl_margin_v_[row], scl_guard_v_),
        row_pass);
    currents[row] = solves[row].current_a;
  };
  if (parallel_rows && rows_ > 1) {
    util::parallel_for(rows_, run_row);
  } else {
    for (std::size_t row = 0; row < rows_; ++row) run_row(row);
  }
  // One batched counter update per query, so parallel row solves never
  // contend on the shared atomics.
  std::uint64_t iterations = 0;
  std::uint64_t closed_form = 0;
  std::uint64_t non_converged = 0;
  for (const auto& solve : solves) {
    iterations += static_cast<std::uint64_t>(solve.passes);
    closed_form += solve.closed_form ? 1 : 0;
    non_converged += solve.converged ? 0 : 1;
  }
  stat_solves_.fetch_add(live_rows_, std::memory_order_relaxed);
  stat_iterations_.fetch_add(iterations, std::memory_order_relaxed);
  stat_closed_form_.fetch_add(closed_form, std::memory_order_relaxed);
  stat_non_converged_.fetch_add(non_converged, std::memory_order_relaxed);
  return currents;
}

std::vector<double> CrossbarArray::search_reference(
    std::span<const int> query) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("search: query.size() != dims");
  }
  // Every factor re-derived from first principles instead of read from
  // the cached tables: the biases from the encoding and ladder and
  // exp(Vgs*a) per query and per search value, 1/R and exp(-Vth*a) per
  // device per row, and from those each row's safe potential. The solve
  // itself is search()'s, run always with the portable passes, so the two
  // agree bit for bit by construction and any drift is a table, gather,
  // stale margin or instruction-set bug.
  const std::size_t per_row = dims_ * fefets_per_cell_;
  const std::size_t values = encoding_.search_count();
  // Search value s's biases over a whole row at [s*per_row + column];
  // the query's own follow at [values*per_row + column].
  std::vector<double> vgs((values + 1) * per_row, 0.0);
  std::vector<double> vds(vgs.size(), 0.0);
  std::vector<double> gate_factors(vgs.size(), 0.0);
  // Writes, from column `at` on, each dim's biases under search value
  // value_of_dim(dim).
  const auto derive_biases = [&](std::size_t at, auto value_of_dim) {
    for (std::size_t dim = 0; dim < dims_; ++dim) {
      const std::size_t value = value_of_dim(dim);
      for (std::size_t i = 0; i < fefets_per_cell_; ++i) {
        const std::size_t col = at + dim * fefets_per_cell_ + i;
        const int level = encoding_.search_level(value, i);
        vgs[col] = ladder_.vsearch(static_cast<std::size_t>(level));
        vds[col] = config_.cell.vds_unit_v * encoding_.vds_multiple(value, i);
        gate_factors[col] = gate_factor_for(vgs[col], subvt_alpha_);
      }
    }
  };
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= values) {
      throw std::out_of_range("search: query value out of range");
    }
  }
  for (std::size_t value = 0; value < values; ++value) {
    derive_biases(value * per_row, [value](std::size_t) { return value; });
  }
  const std::size_t at = values * per_row;
  derive_biases(at, [&](std::size_t dim) {
    return static_cast<std::size_t>(query[dim]);
  });
  const CellModel model{config_.fet.isat_a, config_.fet.min_leak_a,
                        subvt_alpha_};
  const auto margins = detail::MarginModel::of(model);
  double vds_min = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < at; ++j) {
    if (vds[j] > 0.0) vds_min = std::min(vds_min, vds[j]);
  }
  double r_max = 0.0;
  for (const double r : resistances_) r_max = std::max(r_max, r);
  const double guard_v = margins.guard_v(vds_min, r_max);
  const double source_res = source_res_ohm();
  std::vector<double> inv_r(per_row);
  std::vector<double> vth_factor(per_row);
  std::vector<double> currents(rows_);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      // Mirror the optimized kernel's disabled-branch sentinel exactly.
      currents[row] = std::numeric_limits<double>::infinity();
      continue;
    }
    const std::size_t base = row * per_row;
    for (std::size_t j = 0; j < per_row; ++j) {
      inv_r[j] = 1.0 / resistances_[base + j];
      vth_factor[j] = std::exp(-vth_[base + j] * subvt_alpha_);
    }
    const double safe_v = std::min(
        row_margin({vgs.data(), vds.data(), gate_factors.data(),
                    vth_.data() + base, inv_r.data(), vth_factor.data(),
                    per_row},
                   values, margins, &row_margin_portable),
        guard_v);
    currents[row] =
        solve_scl({vgs.data() + at, vds.data() + at, gate_factors.data() + at,
                   vth_.data() + base, inv_r.data(), vth_factor.data(),
                   per_row},
                  model, source_res, safe_v, &row_pass_portable)
            .current_a;
  }
  return currents;
}

int CrossbarArray::nominal_distance(std::span<const int> query,
                                    std::size_t row) const {
  validate_nominal_query(query);
  if (row >= rows_) {
    throw std::out_of_range("nominal_distance: row out of range");
  }
  int total = 0;
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    total += encoding_.nominal_current(
        static_cast<std::size_t>(query[dim]),
        static_cast<std::size_t>(stored_value(row, dim)));
  }
  return total;
}

std::vector<int> CrossbarArray::nominal_distances(
    std::span<const int> query) const {
  validate_nominal_query(query);
  // Copy the query's per-dim LUT rows into one contiguous table, so the
  // row loop is a gather from it over the contiguous stored values.
  const std::size_t stored_count = encoding_.stored_count();
  std::vector<int> lut(dims_ * stored_count);
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const auto row =
        encoding_.nominal_currents(static_cast<std::size_t>(query[dim]));
    std::copy(row.begin(), row.end(),
              lut.begin() + static_cast<std::ptrdiff_t>(dim * stored_count));
  }
  const std::size_t full = dims_ - dims_ % 4;
  std::vector<int> out(rows_, 0);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      // Disabled branch: the integer-domain analogue of search()'s
      // +infinity sentinel, so a caller ignoring the mask never sees an
      // erased row's stale values as a finite distance.
      out[row] = std::numeric_limits<int>::max();
      continue;
    }
    const int* const stored = stored_values_.data() + row * dims_;
    // Four independent partial sums; integer addition is exact in any
    // order, so the result equals the reference's in-order sum.
    int sums[4] = {0, 0, 0, 0};
    const int* table = lut.data();
    std::size_t dim = 0;
    for (; dim < full; dim += 4, table += 4 * stored_count) {
      sums[0] += table[stored[dim]];
      sums[1] += table[stored_count + stored[dim + 1]];
      sums[2] += table[2 * stored_count + stored[dim + 2]];
      sums[3] += table[3 * stored_count + stored[dim + 3]];
    }
    for (; dim < dims_; ++dim, table += stored_count) {
      sums[0] += table[stored[dim]];
    }
    out[row] = (sums[0] + sums[1]) + (sums[2] + sums[3]);
  }
  return out;
}

std::vector<int> CrossbarArray::nominal_distances_reference(
    std::span<const int> query) const {
  validate_nominal_query(query);
  std::vector<int> out(rows_, 0);
  for (std::size_t row = 0; row < rows_; ++row) {
    if (live_[row] == 0) {
      out[row] = std::numeric_limits<int>::max();
      continue;
    }
    int total = 0;
    for (std::size_t dim = 0; dim < dims_; ++dim) {
      total += encoding_.nominal_current_reference(
          static_cast<std::size_t>(query[dim]),
          static_cast<std::size_t>(stored_value(row, dim)));
    }
    out[row] = total;
  }
  return out;
}

void CrossbarArray::validate_nominal_query(std::span<const int> query) const {
  if (query.size() != dims_) {
    throw std::invalid_argument("nominal_distance: query.size() != dims");
  }
  for (std::size_t dim = 0; dim < dims_; ++dim) {
    const int qv = query[dim];
    if (qv < 0 || static_cast<std::size_t>(qv) >= encoding_.search_count()) {
      throw std::out_of_range("nominal_distance: query value out of range");
    }
  }
}

SclSolveStats CrossbarArray::scl_solve_stats() const noexcept {
  SclSolveStats stats;
  stats.solves = stat_solves_.load(std::memory_order_relaxed);
  stats.iterations = stat_iterations_.load(std::memory_order_relaxed);
  stats.closed_form = stat_closed_form_.load(std::memory_order_relaxed);
  stats.non_converged = stat_non_converged_.load(std::memory_order_relaxed);
  return stats;
}

void CrossbarArray::reset_scl_solve_stats() const noexcept {
  stat_solves_.store(0, std::memory_order_relaxed);
  stat_iterations_.store(0, std::memory_order_relaxed);
  stat_closed_form_.store(0, std::memory_order_relaxed);
  stat_non_converged_.store(0, std::memory_order_relaxed);
}

double CrossbarArray::device_vth(std::size_t row, std::size_t dim,
                                 std::size_t fefet) const {
  return vth_[device_index(row, dim, fefet)];
}

double CrossbarArray::device_resistance(std::size_t row, std::size_t dim,
                                        std::size_t fefet) const {
  return resistances_[device_index(row, dim, fefet)];
}

}  // namespace ferex::circuit
