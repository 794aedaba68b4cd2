#include "serve/engine_index.hpp"

#include <utility>

namespace ferex::serve {

EngineIndex::EngineIndex(core::FerexOptions options)
    : engine_(options) {}

void EngineIndex::do_configure(csp::DistanceMetric metric, int bits) {
  engine_.configure(metric, bits);
}

void EngineIndex::do_configure_composite(csp::DistanceMetric metric,
                                         int bits) {
  engine_.configure_composite(metric, bits);
}

BackendState EngineIndex::backend_state() const {
  BackendState state;
  state.configured = engine_.configured();
  state.metric = engine_.metric();
  state.bits = engine_.bits();
  state.composite = engine_.codec() != nullptr;
  state.fidelity = engine_.options().fidelity;
  state.banks.push_back(engine_.snapshot_state());
  return state;
}

void EngineIndex::do_restore_state(BackendState state) {
  if (state.composite) {
    engine_.configure_composite(state.metric, state.bits);
  } else {
    engine_.configure(state.metric, state.bits);
  }
  engine_.restore_state(std::move(state.banks.at(0)));
}

std::size_t EngineIndex::do_compact() { return engine_.compact(); }

void EngineIndex::do_store(const std::vector<std::vector<int>>& database) {
  engine_.store(database);
}

WriteReceipt EngineIndex::do_insert(std::span<const int> vector) {
  return engine_.insert(vector);
}

WriteReceipt EngineIndex::do_remove(std::size_t global_row) {
  return {global_row, 0, engine_.remove(global_row)};
}

WriteReceipt EngineIndex::do_update(std::size_t global_row,
                                    std::span<const int> vector) {
  return {global_row, 0, engine_.update(global_row, vector)};
}

std::size_t EngineIndex::stored_count() const noexcept {
  return engine_.stored_count();
}

std::size_t EngineIndex::live_count() const noexcept {
  return engine_.live_count();
}

std::size_t EngineIndex::dims() const noexcept { return engine_.dims(); }

SearchResponse EngineIndex::search_core(std::span<const int> query,
                                        std::size_t k,
                                        std::uint64_t ordinal) const {
  return {engine_.search_hits_at(query, k, ordinal)};
}

void EngineIndex::validate_backend_query(std::span<const int> query) const {
  engine_.validate_query(query);
}

}  // namespace ferex::serve
