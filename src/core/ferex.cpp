#include "core/ferex.hpp"
#include <algorithm>

#include <limits>
#include <stdexcept>

namespace ferex::core {

FerexEngine::FerexEngine(FerexOptions options)
    : options_(options), rng_(options.seed), lta_(options.lta) {}

void FerexEngine::configure(csp::DistanceMetric metric, int bits) {
  // Recorded only once the encoding exists: a rejected configure leaves
  // the engine (and any snapshot of it) as it was.
  configure(csp::DistanceMatrix::make(metric, bits));
  metric_ = metric;
  bits_ = bits;
}

void FerexEngine::configure(const csp::DistanceMatrix& dm) {
  report_ = {};
  auto encoding = encode::encode_distance_matrix(dm, options_.encoder, &report_);
  if (!encoding) {
    throw std::runtime_error("FerexEngine: no feasible encoding for " +
                             dm.name() + " within encoder limits");
  }
  dm_ = dm;
  encoding_ = std::move(*encoding);
  codec_.reset();  // monolithic path: one cell per element
  if (!database_.empty()) rebuild_array();
}

void FerexEngine::configure_composite(csp::DistanceMetric metric, int bits) {
  report_ = {};
  auto composite =
      encode::make_composite_encoding(metric, bits, options_.encoder);
  if (!composite) {
    throw std::runtime_error(
        "FerexEngine: no composite encoding for " + csp::to_string(metric) +
        " (metric not digit-separable, or base cell infeasible)");
  }
  metric_ = metric;
  bits_ = bits;
  dm_ = csp::DistanceMatrix::make(metric, bits);
  encoding_ = std::move(composite->base);
  codec_ = std::move(composite->codec);
  report_.fefets_per_cell =
      static_cast<int>(encoding_->fefets_per_cell() * codec_->subcells());
  if (!database_.empty()) rebuild_array();
}

void FerexEngine::store(std::vector<std::vector<int>> database) {
  if (database.empty()) {
    throw std::invalid_argument("FerexEngine::store: empty database");
  }
  const std::size_t dims = database.front().size();
  if (dims == 0) {
    throw std::invalid_argument("FerexEngine::store: zero-length vectors");
  }
  for (const auto& row : database) {
    if (row.size() != dims) {
      throw std::invalid_argument("FerexEngine::store: ragged database");
    }
  }
  database_ = std::move(database);
  live_.assign(database_.size(), 1);
  live_rows_ = database_.size();
  if (encoding_) rebuild_array();
}

device::VoltageLadder FerexEngine::make_ladder() const {
  // Shrink the ladder pitch when the encoding needs many levels, so the
  // highest threshold stays inside the device's programmable window (the
  // narrower margin is the physical cost of more levels per cell).
  const double vth_headroom =
      options_.circuit.fet.vth_max_v - options_.ladder_base_v - 0.05;
  const double max_step =
      vth_headroom / static_cast<double>(encoding_->ladder_levels());
  const double step = std::min(options_.ladder_step_v, max_step);
  return device::VoltageLadder(encoding_->ladder_levels(),
                               options_.ladder_base_v, step);
}

std::size_t FerexEngine::physical_dims() const {
  return database_.front().size() * (codec_ ? codec_->subcells() : 1);
}

void FerexEngine::rebuild_array() {
  array_ = std::make_unique<circuit::CrossbarArray>(
      database_.size(), physical_dims(), *encoding_, make_ladder(),
      options_.circuit, rng_);
  for (std::size_t r = 0; r < database_.size(); ++r) {
    if (live_[r] == 0) {
      // Removed slot: the fresh array already holds it erased; re-apply
      // the post-decoder mask (nothing is programmed).
      array_->erase_row(r);
      continue;
    }
    if (codec_) {
      array_->program_row(r, codec_->expand(database_[r]));
    } else {
      array_->program_row(r, database_[r]);
    }
  }
}

FerexEngine::EngineState FerexEngine::snapshot_state() const {
  EngineState state;
  state.database = database_;
  state.live = live_;
  state.rng = rng_.state();
  if (array_) {
    const auto vth = array_->device_vth_offsets();
    const auto res = array_->device_resistances();
    state.vth_offsets.assign(vth.begin(), vth.end());
    state.resistances.assign(res.begin(), res.end());
  }
  return state;
}

void FerexEngine::restore_state(EngineState state) {
  if (!encoding_) {
    throw std::logic_error("FerexEngine::restore_state: configure() first");
  }
  if (state.live.size() != state.database.size()) {
    throw std::invalid_argument(
        "FerexEngine::restore_state: live mask does not match database");
  }
  database_ = std::move(state.database);
  live_ = std::move(state.live);
  live_rows_ = 0;
  for (const auto flag : live_) live_rows_ += flag != 0 ? 1 : 0;
  rng_.set_state(state.rng);
  if (database_.empty()) {
    array_.reset();
    return;
  }
  // Rebuild the array from the recorded fabrication, then re-program
  // each slot from the database (program_row is deterministic given the
  // per-device Vth offsets) — the restored array is device-for-device
  // identical to the one the snapshot was taken from.
  array_ = std::make_unique<circuit::CrossbarArray>(
      database_.size(), physical_dims(), *encoding_, make_ladder(),
      options_.circuit, std::move(state.vth_offsets),
      std::move(state.resistances));
  for (std::size_t r = 0; r < database_.size(); ++r) {
    if (live_[r] == 0) {
      array_->erase_row(r);
      continue;
    }
    if (codec_) {
      array_->program_row(r, codec_->expand(database_[r]));
    } else {
      array_->program_row(r, database_[r]);
    }
  }
}

std::size_t FerexEngine::compact() {
  if (!array_ || live_rows_ == database_.size()) return 0;
  const std::size_t freed = database_.size() - live_rows_;
  std::vector<std::vector<int>> survivors;
  survivors.reserve(live_rows_);
  for (std::size_t r = 0; r < database_.size(); ++r) {
    if (live_[r] != 0) survivors.push_back(std::move(database_[r]));
  }
  // Bit-identity contract: equal to configure()+store(survivors) on a
  // fresh engine — which draws its variation from a generator seeded at
  // construction, so re-seed before rebuilding.
  rng_ = util::Rng(options_.seed);
  if (survivors.empty()) {
    database_.clear();
    live_.clear();
    live_rows_ = 0;
    array_.reset();
    return freed;
  }
  database_ = std::move(survivors);
  live_.assign(database_.size(), 1);
  live_rows_ = database_.size();
  rebuild_array();
  return freed;
}

WriteReceipt FerexEngine::insert(std::span<const int> vector) {
  if (!encoding_) {
    throw std::logic_error("FerexEngine::insert: configure() first");
  }
  if (vector.empty()) {
    throw std::invalid_argument("FerexEngine::insert: empty vector");
  }
  if (!database_.empty() && vector.size() != database_.front().size()) {
    throw std::invalid_argument("FerexEngine::insert: vector.size() != dims");
  }
  // Validate the logical alphabet before mutating anything (append_row
  // re-checks the physical values, but the codec expands with only an
  // assert, and a failed insert must leave the engine untouched).
  const std::size_t alphabet =
      codec_ ? codec_->logical_levels() : encoding_->stored_count();
  for (const int v : vector) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet) {
      throw std::out_of_range("FerexEngine::insert: value out of range");
    }
  }
  // Reuse the lowest freed slot before growing: reviving a removed slot
  // is exactly update() on it — already erased, so the receipt charges
  // programming only — and keeps the slot's own device variation, so
  // searches equal a fresh store() of the same layout.
  if (live_rows_ < database_.size()) {
    std::size_t slot = 0;
    while (live_[slot] != 0) ++slot;
    return {slot, 0, update(slot, vector)};
  }
  database_.emplace_back(vector.begin(), vector.end());
  live_.push_back(1);
  ++live_rows_;
  try {
    if (database_.size() == 1) {
      // First row establishes the geometry; building the one-row array
      // draws the same variation prefix a larger store() would.
      rebuild_array();
    } else if (codec_) {
      array_->append_row(codec_->expand(vector), rng_);
    } else {
      array_->append_row(vector, rng_);
    }
  } catch (...) {
    // Keep the no-mutation-on-throw guarantee on every path (a failed
    // first-row rebuild must not leave a phantom row behind a null
    // array, where a retry would take the append branch).
    database_.pop_back();
    live_.pop_back();
    --live_rows_;
    throw;
  }
  const std::size_t row = database_.size() - 1;
  return {row, 0, row_write_cost(row)};
}

circuit::WriteCost FerexEngine::remove(std::size_t row) {
  if (!array_) {
    throw std::logic_error("FerexEngine::remove: configure() + store() first");
  }
  if (row >= database_.size()) {
    throw std::out_of_range("FerexEngine::remove: row");
  }
  if (live_[row] == 0) {
    throw std::logic_error("FerexEngine::remove: row already removed");
  }
  array_->erase_row(row);
  live_[row] = 0;
  --live_rows_;
  return row_erase_cost();
}

circuit::WriteCost FerexEngine::update(std::size_t row,
                                       std::span<const int> vector) {
  if (!array_) {
    throw std::logic_error("FerexEngine::update: configure() + store() first");
  }
  if (row >= database_.size()) {
    throw std::out_of_range("FerexEngine::update: row");
  }
  if (vector.size() != database_.front().size()) {
    throw std::invalid_argument("FerexEngine::update: vector.size() != dims");
  }
  const std::size_t alphabet =
      codec_ ? codec_->logical_levels() : encoding_->stored_count();
  for (const int v : vector) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet) {
      throw std::out_of_range("FerexEngine::update: value out of range");
    }
  }
  const bool was_live = live_[row] != 0;
  if (codec_) {
    array_->overwrite_row(row, codec_->expand(vector));
  } else {
    array_->overwrite_row(row, vector);
  }
  database_[row].assign(vector.begin(), vector.end());
  if (!was_live) {
    live_[row] = 1;
    ++live_rows_;
  }
  // Erase + program-and-verify: a live slot pays the erase pulse before
  // reprogramming; a removed slot is already erased and pays only the
  // programming half (the erase was charged by remove()).
  circuit::WriteCost cost = row_write_cost(row);
  if (was_live) {
    const auto erase = row_erase_cost();
    cost.pulses += erase.pulses;
    cost.energy_j += erase.energy_j;
    cost.latency_s += erase.latency_s;
  }
  return cost;
}

util::Rng FerexEngine::query_rng(std::uint64_t ordinal) const noexcept {
  // Every query ordinal gets an independent comparator-noise stream
  // derived from the engine seed, so results do not depend on the order
  // or thread interleaving in which queries execute.
  return util::Rng(options_.seed ^
                   (0x9e3779b97f4a7c15ULL * (ordinal + 1)));
}

bool FerexEngine::parallel_rows_worthwhile() const noexcept {
  return options_.fidelity == SearchFidelity::kCircuit && array_ != nullptr &&
         array_->device_count() >= kIntraQueryMinDevices;
}

void FerexEngine::check_query(std::span<const int> query) const {
  // Full validation before anything irreversible: the codec expands
  // element-wise with only an assert on the value range (UB in release
  // builds), and serving layers consume a noise-stream ordinal per
  // accepted query — so both length and alphabet must be checked first.
  if (query.size() != database_.front().size()) {
    throw std::invalid_argument("FerexEngine: query.size() != dims");
  }
  const auto alphabet = dm_->search_count();
  for (const int v : query) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet) {
      throw std::out_of_range("FerexEngine: query value out of range");
    }
  }
}

std::vector<Hit> FerexEngine::search_hits_at(
    std::span<const int> query, std::size_t k, std::uint64_t ordinal,
    std::optional<bool> parallel_rows) const {
  if (!array_) {
    throw std::logic_error(
        "FerexEngine::search_hits_at: configure() + store() first");
  }
  // Bounded by the live rows: removed slots cannot be hits.
  if (k == 0 || k > live_rows_) {
    throw std::invalid_argument("FerexEngine::search_hits_at: bad k");
  }
  check_query(query);
  std::vector<int> expanded;
  if (codec_) {
    expanded = codec_->expand(query);
    query = expanded;
  }
  // Circuit fidelity senses device currents and decides through a noisy
  // comparator; nominal fidelity is exact integer distance arithmetic
  // through an ideal LTA.
  const bool circuit = options_.fidelity == SearchFidelity::kCircuit;
  std::vector<int> distances;
  std::vector<double> currents;
  if (circuit) {
    currents = array_->search(
        query, parallel_rows.value_or(parallel_rows_worthwhile()));
  } else {
    distances = array_->nominal_distances(query);
    currents.assign(distances.begin(), distances.end());
  }
  util::Rng rng = query_rng(ordinal);
  // The post-decoder mask rides along on every decision: removed rows
  // are skipped without a comparator-noise draw, so live rows sense
  // exactly what they would in an array holding only the live rows.
  const auto decisions = lta_.decide_k_detailed(
      currents, circuit ? array_->unit_current_a() : 1.0, k,
      circuit ? &rng : nullptr, array_->live_mask());
  std::vector<Hit> hits;
  hits.reserve(decisions.size());
  for (const auto& decision : decisions) {
    Hit hit;
    hit.global_row = decision.winner;
    hit.sensed_current_a = decision.winner_current_a;
    hit.margin_a = decision.margin_a;
    hit.nominal_distance =
        circuit ? array_->nominal_distance(query, decision.winner)
                : distances[decision.winner];
    hits.push_back(hit);
  }
  return hits;
}

std::vector<double> FerexEngine::row_currents(std::span<const int> query) const {
  if (!array_) {
    throw std::logic_error(
        "FerexEngine::row_currents: configure() + store() first");
  }
  check_query(query);
  std::vector<int> expanded;
  if (codec_) {
    expanded = codec_->expand(query);
    query = expanded;
  }
  if (options_.fidelity == SearchFidelity::kCircuit) {
    return array_->search(query, parallel_rows_worthwhile());
  }
  const auto distances = array_->nominal_distances(query);
  std::vector<double> currents(distances.begin(), distances.end());
  // The circuit path's disabled-branch sentinel, mirrored: a removed
  // slot's stale stored values must never look like a finite distance.
  for (std::size_t r = 0; r < currents.size(); ++r) {
    if (live_[r] == 0) {
      currents[r] = std::numeric_limits<double>::infinity();
    }
  }
  return currents;
}

double FerexEngine::sense_unit() const {
  if (!array_) {
    throw std::logic_error("FerexEngine::sense_unit: nothing stored");
  }
  return options_.fidelity == SearchFidelity::kCircuit
             ? array_->unit_current_a()
             : 1.0;
}

int FerexEngine::software_distance(std::span<const int> query,
                                   std::size_t row) const {
  if (row >= database_.size()) {
    throw std::out_of_range("FerexEngine::software_distance: row");
  }
  const auto& stored = database_[row];
  if (query.size() != stored.size()) {
    throw std::invalid_argument("FerexEngine::software_distance: length");
  }
  int total = 0;
  for (std::size_t d = 0; d < stored.size(); ++d) {
    // For custom DMs fall back to the matrix entry; for standard metrics
    // this equals reference_distance.
    total += dm_->at(static_cast<std::size_t>(query[d]),
                     static_cast<std::size_t>(stored[d]));
  }
  return total;
}

int FerexEngine::nominal_distance(std::span<const int> query,
                                  std::size_t row) const {
  if (!array_) {
    throw std::logic_error(
        "FerexEngine::nominal_distance: configure() + store() first");
  }
  if (row >= database_.size()) {
    throw std::out_of_range("FerexEngine::nominal_distance: row");
  }
  check_query(query);
  if (codec_) {
    return array_->nominal_distance(codec_->expand(query), row);
  }
  return array_->nominal_distance(query, row);
}

void FerexEngine::validate_query(std::span<const int> query) const {
  if (!array_) {
    throw std::logic_error(
        "FerexEngine::validate_query: configure() + store() first");
  }
  check_query(query);
}

circuit::SearchCost FerexEngine::search_cost() const {
  if (!encoding_ || database_.empty()) {
    throw std::logic_error("FerexEngine::search_cost: nothing stored");
  }
  circuit::SearchOpSpec spec;
  spec.rows = database_.size();
  spec.dims = database_.front().size() * (codec_ ? codec_->subcells() : 1);
  spec.fefets_per_cell = encoding_->fefets_per_cell();
  spec.bits_per_cell = bits_ > 0 ? static_cast<std::size_t>(bits_) : 1;
  spec.avg_vds_multiple = 0.5 * (1.0 + encoding_->max_vds_multiple());
  const circuit::EnergyDelayModel model(options_.circuit.cell,
                                        options_.parasitics,
                                        options_.circuit.opamp, options_.lta);
  return model.search_op(spec);
}

circuit::WriteDriver FerexEngine::write_driver() const {
  circuit::WriteDriverParams params;
  params.device.vth_low_v = options_.circuit.fet.vth_min_v;
  params.device.vth_high_v = options_.circuit.fet.vth_max_v;
  params.vth_tolerance_v = options_.circuit.program_tolerance_v;
  return circuit::WriteDriver(params);
}

circuit::WriteCost FerexEngine::row_erase_cost() const {
  return write_driver().erase_row(array_->dims() *
                                  array_->fefets_per_cell());
}

circuit::WriteCost FerexEngine::row_write_cost(std::size_t row) const {
  const circuit::WriteDriver driver = write_driver();

  std::vector<double> targets;
  targets.reserve(array_->dims() * array_->fefets_per_cell());
  for (std::size_t d = 0; d < array_->dims(); ++d) {
    const auto value = static_cast<std::size_t>(array_->stored_value(row, d));
    for (std::size_t i = 0; i < array_->fefets_per_cell(); ++i) {
      const auto level =
          static_cast<std::size_t>(encoding_->store_level(value, i));
      targets.push_back(array_->ladder().vth(level));
    }
  }
  return driver.program_row(targets);
}

circuit::WriteCost FerexEngine::program_cost() const {
  if (!array_) {
    throw std::logic_error("FerexEngine::program_cost: nothing stored");
  }
  circuit::WriteCost total;
  for (std::size_t r = 0; r < array_->rows(); ++r) {
    if (live_[r] == 0) continue;  // removed slots hold no programmed data
    const auto row_cost = row_write_cost(r);
    total.pulses += row_cost.pulses;
    total.energy_j += row_cost.energy_j;
    total.latency_s += row_cost.latency_s;
  }
  return total;
}

const encode::CellEncoding& FerexEngine::encoding() const {
  if (!encoding_) throw std::logic_error("FerexEngine: not configured");
  return *encoding_;
}

const csp::DistanceMatrix& FerexEngine::distance_matrix() const {
  if (!dm_) throw std::logic_error("FerexEngine: not configured");
  return *dm_;
}

}  // namespace ferex::core
