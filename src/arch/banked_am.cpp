#include "arch/banked_am.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "util/parallel.hpp"

namespace ferex::arch {

BankedAm::BankedAm(BankedOptions options)
    : options_(options), global_lta_(options.engine.lta) {
  if (options_.bank_rows == 0) {
    throw std::invalid_argument("BankedAm: bank_rows == 0");
  }
}

void BankedAm::configure(csp::DistanceMetric metric, int bits) {
  metric_ = metric;
  bits_ = bits;
  configured_ = true;
  for (auto& bank : banks_) bank->configure(metric, bits);
}

std::unique_ptr<core::FerexEngine> BankedAm::make_bank(
    std::size_t start) const {
  auto engine_options = options_.engine;
  // Decorrelate device variation across macros.
  engine_options.seed = options_.engine.seed + 0x9e37 * (start + 1);
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
  bank_offsets_.clear();
  total_rows_ = database.size();
  for (std::size_t start = 0; start < database.size();
       start += options_.bank_rows) {
    const std::size_t end =
        std::min(start + options_.bank_rows, database.size());
    std::vector<std::vector<int>> slice(database.begin() + start,
                                        database.begin() + end);
    auto bank = make_bank(start);
    bank->store(std::move(slice));
    banks_.push_back(std::move(bank));
    bank_offsets_.push_back(start);
  }
}

BankedWrite BankedAm::insert(std::span<const int> vector) {
  if (!configured_) {
    throw std::logic_error("BankedAm::insert: configure() first");
  }
  if (!banks_.empty() && vector.size() != dims()) {
    // A fresh bank's engine would otherwise accept any length as its
    // first row; the banked database keeps one dimensionality.
    throw std::invalid_argument("BankedAm::insert: vector.size() != dims");
  }
  BankedWrite receipt;
  // Freed slots are reused before any growth: scan banks in order for a
  // removed slot (the engine picks its lowest) so the physical footprint
  // only grows when every slot is live.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b]->live_count() < banks_[b]->stored_count()) {
      const auto result = banks_[b]->insert(vector);
      receipt.cost = result.cost;
      receipt.bank = b;
      receipt.global_row = bank_offsets_[b] + result.row;
      return receipt;
    }
  }
  const bool need_new_bank =
      banks_.empty() || banks_.back()->stored_count() >= options_.bank_rows;
  if (need_new_bank) {
    // The new bank's first global row: every earlier bank is full, so
    // this is a multiple of bank_rows — the same `start` a fresh store()
    // of the concatenated database would feed the seed formula.
    const std::size_t start = total_rows_;
    auto bank = make_bank(start);
    receipt.cost = bank->insert(vector).cost;  // throws before state change
    banks_.push_back(std::move(bank));
    bank_offsets_.push_back(start);
  } else {
    receipt.cost = banks_.back()->insert(vector).cost;
  }
  receipt.bank = banks_.size() - 1;
  receipt.global_row = total_rows_++;
  return receipt;
}

BankedWrite BankedAm::remove(std::size_t global_row) {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::remove: store() first");
  }
  if (global_row >= total_rows_) {
    throw std::out_of_range("BankedAm::remove: row");
  }
  const std::size_t b = bank_of(global_row);
  BankedWrite receipt;
  receipt.cost = banks_[b]->remove(global_row - bank_offsets_[b]);
  receipt.bank = b;
  receipt.global_row = global_row;
  return receipt;
}

BankedWrite BankedAm::update(std::size_t global_row,
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
  const std::size_t b = bank_of(global_row);
  BankedWrite receipt;
  receipt.cost = banks_[b]->update(global_row - bank_offsets_[b], vector);
  receipt.bank = b;
  receipt.global_row = global_row;
  return receipt;
}

BankedAm::BankedState BankedAm::snapshot_state() const {
  BankedState state;
  state.bank_offsets = bank_offsets_;
  state.banks.reserve(banks_.size());
  for (const auto& bank : banks_) state.banks.push_back(bank->snapshot_state());
  return state;
}

void BankedAm::restore_state(BankedState state) {
  if (!configured_) {
    throw std::logic_error("BankedAm::restore_state: configure() first");
  }
  if (state.bank_offsets.size() != state.banks.size()) {
    throw std::invalid_argument(
        "BankedAm::restore_state: offsets do not match banks");
  }
  banks_.clear();
  bank_offsets_ = std::move(state.bank_offsets);
  total_rows_ = 0;
  for (std::size_t b = 0; b < state.banks.size(); ++b) {
    auto bank = make_bank(bank_offsets_[b]);
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
    bank_offsets_.clear();
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

std::size_t BankedAm::global_index(std::size_t bank, std::size_t local) const {
  return bank_offsets_[bank] + local;
}

std::size_t BankedAm::bank_of(std::size_t global_row) const {
  // bank_offsets_ is sorted; the row lives in the last bank whose first
  // row is not past it.
  const auto it = std::upper_bound(bank_offsets_.begin(), bank_offsets_.end(),
                                   global_row);
  return static_cast<std::size_t>(it - bank_offsets_.begin()) - 1;
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

BankedSearchResult BankedAm::search_at(std::span<const int> query,
                                       std::uint64_t ordinal) const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_at: store() first");
  }
  if (live_count() == 0) {
    throw std::logic_error("BankedAm::search_at: no live rows");
  }
  check_query(query);
  // Stage 1: every bank's local LTA resolves its winner in parallel.
  // Each bank draws its comparator noise from its own seed at this query
  // ordinal, so banks stay decorrelated and the result is independent of
  // execution order — fanning the banks across the pool is bit-identical
  // to the serial sweep.
  std::vector<core::SearchResult> bank_results(banks_.size());
  // Banks whose rows are all removed stop firing: they run no search,
  // draw no comparator noise, and are masked out of the global stage.
  std::vector<std::uint8_t> bank_live(banks_.size());
  std::size_t live_banks = 0;
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    bank_live[b] = banks_[b]->live_count() > 0 ? 1 : 0;
    live_banks += bank_live[b];
  }
  // Each engine keeps its own row gate; under a bank fan-out its row
  // loop runs inline (util::parallel's nesting rule).
  const auto run_bank = [&](std::size_t b) {
    if (bank_live[b] == 0) return;
    bank_results[b] = banks_[b]->search_hits_at(query, 1, ordinal).front();
  };
  if (parallel_banks_worthwhile()) {
    util::parallel_for(banks_.size(), run_bank);
  } else {
    for (std::size_t b = 0; b < banks_.size(); ++b) run_bank(b);
  }
  // Stage 2: the global LTA over the already-sensed bank winners, with
  // no rng attached. It picks the smallest winner, ties to the lowest
  // bank (banks are contiguous, so also the lowest row), and its margin
  // is the gap to the best other bank winner. A sole live bank has no
  // other winner to compare against, so its own margin passes through.
  std::vector<double> winners(banks_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    winners[b] = bank_results[b].winner_current_a;
  }
  const auto decision = global_lta_.decide(winners, 1.0, nullptr, bank_live);
  const auto& winner = bank_results[decision.winner];
  BankedSearchResult out;
  out.bank = decision.winner;
  out.nearest = global_index(decision.winner, winner.nearest);
  out.winner_current_a = decision.winner_current_a;
  out.margin_a = live_banks > 1 ? decision.margin_a : winner.margin_a;
  out.nominal_distance = winner.nominal_distance;
  return out;
}

std::vector<BankedSearchResult> BankedAm::search_k_hits(
    std::span<const int> query, std::size_t k,
    std::optional<bool> parallel_banks) const {
  if (banks_.empty()) {
    throw std::logic_error("BankedAm::search_k_hits: store() first");
  }
  if (k == 0 || k > live_count()) {
    throw std::invalid_argument("BankedAm::search_k_hits: bad k");
  }
  check_query(query);
  // Each bank holds its sensed row currents (the post-decoder can mask
  // individual row branches); the global stage iteratively extracts the
  // minimum across the concatenated currents. Banks fire concurrently,
  // as in search_at().
  std::vector<std::vector<double>> per_bank(banks_.size());
  const auto run_bank = [&](std::size_t b) {
    per_bank[b] = banks_[b]->row_currents(query);
  };
  if (parallel_banks.value_or(parallel_banks_worthwhile())) {
    util::parallel_for(banks_.size(), run_bank);
  } else {
    for (std::size_t b = 0; b < banks_.size(); ++b) run_bank(b);
  }
  std::vector<double> all;
  std::vector<std::uint8_t> live;
  all.reserve(total_rows_);
  live.reserve(total_rows_);
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    all.insert(all.end(), per_bank[b].begin(), per_bank[b].end());
    const auto mask = banks_[b]->live_mask();
    live.insert(live.end(), mask.begin(), mask.end());
  }
  // The concatenated post-decoder mask: removed rows are skipped, not
  // just driven to +infinity, so the decision sequence matches a fresh
  // store() of only the live rows.
  const auto decisions = global_lta_.decide_k_detailed(
      all, banks_.front()->sense_unit(), k, nullptr, live);
  std::vector<BankedSearchResult> hits;
  hits.reserve(decisions.size());
  for (const auto& decision : decisions) {
    BankedSearchResult hit;
    hit.nearest = decision.winner;
    hit.bank = bank_of(decision.winner);
    hit.winner_current_a = decision.winner_current_a;
    hit.margin_a = decision.margin_a;
    hit.nominal_distance = banks_[hit.bank]->nominal_distance(
        query, decision.winner - bank_offsets_[hit.bank]);
    hits.push_back(hit);
  }
  return hits;
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
