#include "serve/engine_index.hpp"

namespace ferex::serve {

EngineIndex::EngineIndex(core::FerexOptions options)
    : engine_(options) {}

void EngineIndex::do_configure(csp::DistanceMetric metric, int bits) {
  engine_.configure(metric, bits);
}

void EngineIndex::configure_composite(csp::DistanceMetric metric, int bits) {
  check_mutable("configure_composite");
  engine_.configure_composite(metric, bits);
}

void EngineIndex::do_store(const std::vector<std::vector<int>>& database) {
  engine_.store(database);
}

WriteReceipt EngineIndex::do_insert(std::span<const int> vector) {
  const auto result = engine_.insert(vector);
  WriteReceipt receipt;
  receipt.cost = result.cost;
  receipt.bank = 0;
  receipt.global_row = result.row;
  return receipt;
}

WriteReceipt EngineIndex::do_remove(std::size_t global_row) {
  WriteReceipt receipt;
  receipt.cost = engine_.remove(global_row);
  receipt.bank = 0;
  receipt.global_row = global_row;
  return receipt;
}

WriteReceipt EngineIndex::do_update(std::size_t global_row,
                                    std::span<const int> vector) {
  WriteReceipt receipt;
  receipt.cost = engine_.update(global_row, vector);
  receipt.bank = 0;
  receipt.global_row = global_row;
  return receipt;
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
  const auto results = engine_.search_hits_at(query, k, ordinal);
  SearchResponse response;
  response.hits.reserve(results.size());
  for (const auto& r : results) {
    Hit hit;
    hit.global_row = r.nearest;
    hit.bank = 0;
    hit.sensed_current_a = r.winner_current_a;
    hit.margin_a = r.margin_a;
    hit.nominal_distance = r.nominal_distance;
    response.hits.push_back(hit);
  }
  return response;
}

void EngineIndex::validate_backend_query(std::span<const int> query) const {
  engine_.validate_query(query);
}

}  // namespace ferex::serve
