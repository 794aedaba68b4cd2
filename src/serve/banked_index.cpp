#include "serve/banked_index.hpp"

namespace ferex::serve {

namespace {

Hit to_hit(const arch::BankedSearchResult& r) {
  Hit hit;
  hit.global_row = r.nearest;
  hit.bank = r.bank;
  hit.sensed_current_a = r.winner_current_a;
  hit.margin_a = r.margin_a;
  hit.nominal_distance = r.nominal_distance;
  return hit;
}

}  // namespace

BankedIndex::BankedIndex(arch::BankedOptions options)
    : banked_(options) {}

namespace {

WriteReceipt to_receipt(const arch::BankedWrite& w) {
  WriteReceipt receipt;
  receipt.global_row = w.global_row;
  receipt.bank = w.bank;
  receipt.cost = w.cost;
  return receipt;
}

}  // namespace

void BankedIndex::do_configure(csp::DistanceMetric metric, int bits) {
  banked_.configure(metric, bits);
}

void BankedIndex::do_store(const std::vector<std::vector<int>>& database) {
  banked_.store(database);
}

WriteReceipt BankedIndex::do_insert(std::span<const int> vector) {
  return to_receipt(banked_.insert(vector));
}

WriteReceipt BankedIndex::do_remove(std::size_t global_row) {
  return to_receipt(banked_.remove(global_row));
}

WriteReceipt BankedIndex::do_update(std::size_t global_row,
                                    std::span<const int> vector) {
  return to_receipt(banked_.update(global_row, vector));
}

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
  SearchResponse response;
  if (k == 1) {
    response.hits.push_back(to_hit(banked_.search_at(query, ordinal)));
    return response;
  }
  const auto hits = banked_.search_k_hits(query, k);
  response.hits.reserve(hits.size());
  for (const auto& hit : hits) response.hits.push_back(to_hit(hit));
  return response;
}

void BankedIndex::validate_backend_query(std::span<const int> query) const {
  banked_.validate_query(query);
}

}  // namespace ferex::serve
