#include "serve/banked_index.hpp"

#include <utility>

namespace ferex::serve {

BankedIndex::BankedIndex(arch::BankedOptions options)
    : banked_(options) {}

void BankedIndex::do_configure(csp::DistanceMetric metric, int bits) {
  banked_.configure(metric, bits);
}

void BankedIndex::do_store(const std::vector<std::vector<int>>& database) {
  banked_.store(database);
}

WriteReceipt BankedIndex::do_insert(std::span<const int> vector) {
  return banked_.insert(vector);
}

WriteReceipt BankedIndex::do_remove(std::size_t global_row) {
  return banked_.remove(global_row);
}

WriteReceipt BankedIndex::do_update(std::size_t global_row,
                                    std::span<const int> vector) {
  return banked_.update(global_row, vector);
}

BackendState BankedIndex::backend_state() const {
  BackendState state;
  state.configured = banked_.configured();
  state.metric = banked_.metric();
  state.bits = banked_.bits();
  state.fidelity = banked_.options().engine.fidelity;
  state.bank_rows = banked_.options().bank_rows;
  state.banks = banked_.snapshot_state().banks;
  return state;
}

void BankedIndex::do_restore_state(BackendState state) {
  banked_.configure(state.metric, state.bits);
  banked_.restore_state({std::move(state.banks)});
}

std::size_t BankedIndex::do_compact() { return banked_.compact(); }

std::size_t BankedIndex::stored_count() const noexcept {
  return banked_.stored_count();
}

std::size_t BankedIndex::live_count() const noexcept {
  return banked_.live_count();
}

std::size_t BankedIndex::dims() const noexcept { return banked_.dims(); }

std::size_t BankedIndex::bank_count() const noexcept {
  return banked_.bank_count();
}

SearchResponse BankedIndex::search_core(std::span<const int> query,
                                        std::size_t k,
                                        std::uint64_t ordinal) const {
  if (k == 1) return {std::vector<Hit>{banked_.search_at(query, ordinal)}};
  return {banked_.search_k_hits(query, k)};
}

void BankedIndex::validate_backend_query(std::span<const int> query) const {
  banked_.validate_query(query);
}

}  // namespace ferex::serve
