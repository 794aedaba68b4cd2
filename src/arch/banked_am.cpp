#include "arch/banked_am.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "arch/merge_hits.hpp"
#include "util/parallel.hpp"

namespace ferex::arch {

BankedAm::BankedAm(BankedOptions options)
    : options_(options), global_lta_(options.engine.lta) {
  if (options_.bank_rows == 0) {
    throw std::invalid_argument("BankedAm: bank_rows == 0");
  }
}

void BankedAm::configure(csp::DistanceMetric metric, int bits) {
  // A metric or width no bank can take is rejected before anything
  // changes, even with no bank built yet.
  (void)csp::DistanceMatrix::make(metric, bits);
  for (auto& bank : banks_) bank->configure(metric, bits);
  metric_ = metric;
  bits_ = bits;
  configured_ = true;
}

std::unique_ptr<core::FerexEngine> BankedAm::make_bank(std::size_t b) const {
  auto engine_options = options_.engine;
  // Decorrelate device variation across macros, keyed by the bank's
  // first global row.
  engine_options.seed =
      options_.engine.seed + 0x9e37 * (b * options_.bank_rows + 1);
  auto bank = std::make_unique<core::FerexEngine>(engine_options);
  bank->configure(metric_, bits_);
  return bank;
}

void BankedAm::store(const std::vector<std::vector<int>>& database) {
  if (!configured_) {
    throw std::logic_error("BankedAm::store: configure() first");
  }
  if (database.empty()) {
    throw std::invalid_argument("BankedAm::store: empty database");
  }
  banks_.clear();
  total_rows_ = database.size();
  for (std::size_t start = 0; start < database.size();
       start += options_.bank_rows) {
    const std::size_t end =
        std::min(start + options_.bank_rows, database.size());
    std::vector<std::vector<int>> slice(database.begin() + start,
                                        database.begin() + end);
    auto bank = make_bank(banks_.size());
    bank->store(std::move(slice));
    banks_.push_back(std::move(bank));
  }
}

core::WriteReceipt BankedAm::insert(std::span<const int> vector) {
  if (!configured_) {
    throw std::logic_error("BankedAm::insert: configure() first");
  }
  if (!banks_.empty() && vector.size() != dims()) {
    // A fresh bank's engine would otherwise accept any length as its
    // first row; the banked database keeps one dimensionality.
    throw std::invalid_argument("BankedAm::insert: vector.size() != dims");
  }
  // Freed slots are reused before any growth: scan banks in order for a
  // removed slot (the engine picks its lowest) so the physical footprint
  // only grows when every slot is live.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b]->live_count() < banks_[b]->stored_count()) {
      core::WriteReceipt receipt = banks_[b]->insert(vector);
      receipt.global_row += b * options_.bank_rows;
      receipt.bank = b;
      return receipt;
    }
  }
  core::WriteReceipt receipt;
  if (banks_.empty() || banks_.back()->stored_count() >= options_.bank_rows) {
    // Every earlier bank is full, so the new bank starts at global row
    // total_rows_ — the bank a fresh store() of the concatenated
    // database would build there, with the same seed.
    auto bank = make_bank(banks_.size());
    receipt = bank->insert(vector);  // throws before state change
    banks_.push_back(std::move(bank));
  } else {
    receipt = banks_.back()->insert(vector);
  }
  receipt.bank = banks_.size() - 1;
  receipt.global_row = total_rows_++;
  return receipt;
}

core::WriteReceipt BankedAm::remove(std::size_t global_row) {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::remove: store() first");
  }
  if (global_row >= total_rows_) {
    throw std::out_of_range("BankedAm::remove: row");
  }
  const std::size_t b = global_row / options_.bank_rows;
  return {global_row, b,
          banks_[b]->remove(global_row % options_.bank_rows)};
}

core::WriteReceipt BankedAm::update(std::size_t global_row,
                                    std::span<const int> vector) {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::update: store() first");
  }
  if (global_row >= total_rows_) {
    throw std::out_of_range("BankedAm::update: row");
  }
  if (vector.size() != dims()) {
    throw std::invalid_argument("BankedAm::update: vector.size() != dims");
  }
  const std::size_t b = global_row / options_.bank_rows;
  return {global_row, b,
          banks_[b]->update(global_row % options_.bank_rows, vector)};
}

BankedAm::BankedState BankedAm::snapshot_state() const {
  BankedState state;
  state.banks.reserve(banks_.size());
  for (const auto& bank : banks_) state.banks.push_back(bank->snapshot_state());
  return state;
}

void BankedAm::restore_state(BankedState state) {
  if (!configured_) {
    throw std::logic_error("BankedAm::restore_state: configure() first");
  }
  // Routing is arithmetic (bank = row / bank_rows), which holds only for
  // the shapes store() and insert() build.
  for (std::size_t b = 0; b < state.banks.size(); ++b) {
    const std::size_t rows = state.banks[b].database.size();
    const bool last = b + 1 == state.banks.size();
    if (last ? (rows == 0 || rows > options_.bank_rows)
             : rows != options_.bank_rows) {
      throw std::invalid_argument("BankedAm::restore_state: bank " +
                                  std::to_string(b) + " holds " +
                                  std::to_string(rows) + " rows");
    }
  }
  banks_.clear();
  total_rows_ = 0;
  for (std::size_t b = 0; b < state.banks.size(); ++b) {
    auto bank = make_bank(b);
    total_rows_ += state.banks[b].database.size();
    bank->restore_state(std::move(state.banks[b]));
    banks_.push_back(std::move(bank));
  }
}

std::size_t BankedAm::compact() {
  if (banks_.empty()) return 0;
  const std::size_t live = live_count();
  if (live == total_rows_) return 0;
  const std::size_t freed = total_rows_ - live;
  std::vector<std::vector<int>> survivors;
  survivors.reserve(live);
  for (const auto& bank : banks_) {
    auto state = bank->snapshot_state();
    for (std::size_t r = 0; r < state.database.size(); ++r) {
      if (state.live[r] != 0) survivors.push_back(std::move(state.database[r]));
    }
  }
  if (survivors.empty()) {
    // Every row was a tombstone: back to the configured-but-unstored
    // state (exactly a fresh BankedAm after configure()).
    banks_.clear();
    total_rows_ = 0;
    return freed;
  }
  store(survivors);
  return freed;
}

std::size_t BankedAm::live_count() const noexcept {
  std::size_t live = 0;
  for (const auto& bank : banks_) live += bank->live_count();
  return live;
}

std::size_t BankedAm::live_bank_count() const noexcept {
  std::size_t live = 0;
  for (const auto& bank : banks_) live += bank->live_count() > 0 ? 1 : 0;
  return live;
}

void BankedAm::to_global(std::size_t bank,
                         std::vector<core::Hit>& hits) const {
  for (auto& hit : hits) {
    hit.global_row += bank * options_.bank_rows;
    hit.bank = bank;
  }
}

bool BankedAm::parallel_banks_worthwhile() const noexcept {
  if (live_bank_count() <= 1 ||
      options_.engine.fidelity != core::SearchFidelity::kCircuit) {
    return false;
  }
  std::size_t devices = 0;
  for (const auto& bank : banks_) {
    if (const auto* array = bank->array()) devices += array->device_count();
  }
  return devices >= core::kIntraQueryMinDevices;
}

void BankedAm::check_query(std::span<const int> query) const {
  // Serving layers validate before consuming an ordinal, so a bad query
  // cannot shift the per-bank noise-stream sequence (see search_at).
  if (query.size() != banks_.front()->dims()) {
    throw std::invalid_argument("BankedAm: query.size() != dims");
  }
  const auto alphabet = banks_.front()->distance_matrix().search_count();
  for (const int v : query) {
    if (v < 0 || static_cast<std::size_t>(v) >= alphabet) {
      throw std::out_of_range("BankedAm: query value out of range");
    }
  }
}

core::Hit BankedAm::search_at(std::span<const int> query,
                              std::uint64_t ordinal) const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_at: store() first");
  }
  if (live_count() == 0) {
    throw std::logic_error("BankedAm::search_at: no live rows");
  }
  check_query(query);
  // Every bank's local LTA resolves its winner in parallel. Each bank
  // draws its comparator noise from its own seed at this query ordinal,
  // so banks stay decorrelated and the result is independent of
  // execution order — fanning the banks across the pool is bit-identical
  // to the serial sweep. Each engine keeps its own row gate; under a
  // bank fan-out its row loop runs inline (util::parallel's nesting
  // rule).
  std::vector<std::vector<core::Hit>> winners(banks_.size());
  const auto run_bank = [&](std::size_t b) {
    // A bank whose rows are all removed stops firing: no search, no
    // comparator noise, no part in the global stage.
    if (banks_[b]->live_count() == 0) return;
    winners[b] = banks_[b]->search_hits_at(query, 1, ordinal);
    to_global(b, winners[b]);
  };
  if (parallel_banks_worthwhile()) {
    util::parallel_for(banks_.size(), run_bank);
  } else {
    for (std::size_t b = 0; b < banks_.size(); ++b) run_bank(b);
  }
  // The global stage over the already-sensed bank winners draws no
  // noise.
  return merge_hits(winners, 1).front();
}

std::vector<core::Hit> BankedAm::search_k_hits(
    std::span<const int> query, std::size_t k,
    std::optional<bool> parallel_banks) const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_k_hits: store() first");
  }
  if (k == 0 || k > live_count()) {
    throw std::invalid_argument("BankedAm::search_k_hits: bad k");
  }
  check_query(query);
  const bool sole_bank = live_bank_count() == 1;
  std::vector<std::vector<core::Hit>> parts(banks_.size());
  const auto run_bank = [&](std::size_t b) {
    const core::FerexEngine& bank = *banks_[b];
    const std::size_t live = bank.live_count();
    if (live == 0) return;
    // The post-decoder masks removed rows (skipped, not just driven to
    // +inf), so the rounds match a fresh store() of only the live rows.
    // One row past k keeps the true runner-up among the merge's heads; a
    // sole live bank's rounds are the whole answer.
    const auto decisions = global_lta_.decide_k_detailed(
        bank.row_currents(query), bank.sense_unit(),
        sole_bank ? k : std::min(k + 1, live), nullptr, bank.live_mask());
    auto& hits = parts[b];
    hits.reserve(decisions.size());
    for (const auto& decision : decisions) {
      core::Hit hit;
      hit.global_row = decision.winner;
      hit.sensed_current_a = decision.winner_current_a;
      hit.margin_a = decision.margin_a;
      hit.nominal_distance = bank.nominal_distance(query, decision.winner);
      hits.push_back(hit);
    }
    to_global(b, hits);
  };
  if (parallel_banks.value_or(parallel_banks_worthwhile())) {
    util::parallel_for(banks_.size(), run_bank);
  } else {
    for (std::size_t b = 0; b < banks_.size(); ++b) run_bank(b);
  }
  return merge_hits(parts, k);
}

void BankedAm::validate_query(std::span<const int> query) const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::validate_query: no rows stored");
  }
  check_query(query);
}

double BankedAm::search_delay_s() const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_delay_s: store() first");
  }
  // Banks fire concurrently; the slowest bank gates the global stage.
  double slowest = 0.0;
  for (const auto& bank : banks_) {
    slowest = std::max(slowest, bank->search_cost().total_delay_s());
  }
  return slowest + global_lta_.delay_s(banks_.size());
}

double BankedAm::search_energy_j() const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_energy_j: store() first");
  }
  double total = 0.0;
  for (const auto& bank : banks_) {
    total += bank->search_cost().total_energy_j();
  }
  total += global_lta_.energy_j(banks_.size(),
                                global_lta_.delay_s(banks_.size()));
  return total;
}

}  // namespace ferex::arch
