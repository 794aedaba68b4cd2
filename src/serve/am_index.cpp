#include "serve/am_index.hpp"

#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace ferex::serve {

void AmIndex::check_mutable(const char* op) const {
  if (async_owned_.load(std::memory_order_acquire)) {
    throw MutationWhileServed(
        std::string("AmIndex::") + op +
        ": index is owned by a live AsyncAmIndex — submit the write "
        "through it (or shut it down first)");
  }
}

void AmIndex::configure(csp::DistanceMetric metric, int bits) {
  check_mutable("configure");
  do_configure(metric, bits);
}

void AmIndex::store(const std::vector<std::vector<int>>& database) {
  check_mutable("store");
  do_store(database);
}

WriteReceipt AmIndex::insert(std::span<const int> vector) {
  check_mutable("insert");
  return do_insert(vector);
}

WriteReceipt AmIndex::remove(std::size_t global_row) {
  check_mutable("remove");
  return do_remove(global_row);
}

WriteReceipt AmIndex::update(std::size_t global_row,
                             std::span<const int> vector) {
  check_mutable("update");
  return do_update(global_row, vector);
}

void AmIndex::configure_composite(csp::DistanceMetric metric, int bits) {
  check_mutable("configure_composite");
  do_configure_composite(metric, bits);
}

void AmIndex::restore_state(BackendState state) {
  check_mutable("restore_state");
  do_restore_state(std::move(state));
}

std::size_t AmIndex::compact() {
  check_mutable("compact");
  return do_compact();
}

BackendState AmIndex::backend_state() const {
  throw std::invalid_argument("AmIndex::backend_state: backend has no state");
}

void AmIndex::do_configure_composite(csp::DistanceMetric, int) {
  throw std::invalid_argument(
      "AmIndex::configure_composite: single-macro backend required");
}

void AmIndex::do_restore_state(BackendState) {
  throw std::invalid_argument("AmIndex::restore_state: backend has no state");
}

std::size_t AmIndex::do_compact() {
  throw std::invalid_argument("AmIndex::compact: backend cannot compact");
}

void AmIndex::validate_request(const SearchRequest& request) const {
  // No live row means no k is acceptable: say so with the typed error
  // instead of blaming the caller's k. Covers both a never-stored index
  // and one whose every row was removed.
  if (live_count() == 0) {
    throw EmptyIndex("AmIndex: no live rows to search");
  }
  if (request.k == 0 || request.k > live_count()) {
    throw std::invalid_argument("AmIndex: request.k out of range");
  }
  validate_backend_query(request.query);
}

SearchResponse AmIndex::search(const SearchRequest& request) {
  // Synchronous serving consumes ordinals, which a live AsyncAmIndex
  // owns — the same footgun as a synchronous mutation.
  check_mutable("search");
  // Validate before consuming an ordinal, so a rejected request leaves
  // the noise-stream sequence exactly where it was.
  validate_request(request);
  const std::uint64_t ordinal =
      request.ordinal ? *request.ordinal : query_serial_++;
  return search_core(request.query, request.k, ordinal);
}

SearchResponse AmIndex::search_at(const SearchRequest& request,
                                  std::uint64_t ordinal) const {
  // Const, but still racy against an owning AsyncAmIndex's queued
  // writes — outside callers must go through the wrapper.
  check_mutable("search_at");
  return serve_at(request, ordinal);
}

SearchResponse AmIndex::serve_at(const SearchRequest& request,
                                 std::uint64_t ordinal) const {
  validate_request(request);
  return search_core(request.query, request.k, ordinal);
}

std::vector<SearchResponse> AmIndex::search_batch(
    std::span<const SearchRequest> requests) {
  check_mutable("search_batch");
  if (requests.empty()) return {};
  // Whole-batch validation up front: a rejected batch consumes nothing.
  for (const auto& request : requests) validate_request(request);
  std::vector<std::uint64_t> ordinals(requests.size());
  std::uint64_t next = query_serial_;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ordinals[i] = requests[i].ordinal ? *requests[i].ordinal : next++;
  }
  query_serial_ = next;
  return dispatch_batch(requests, ordinals);
}

std::vector<SearchResponse> AmIndex::serve_batch_at(
    std::span<const SearchRequest> requests,
    std::span<const std::uint64_t> ordinals) const {
  if (requests.size() != ordinals.size()) {
    throw std::invalid_argument(
        "AmIndex::serve_batch_at: requests/ordinals size mismatch");
  }
  if (requests.empty()) return {};
  for (const auto& request : requests) validate_request(request);
  return dispatch_batch(requests, ordinals);
}

std::vector<SearchResponse> AmIndex::dispatch_batch(
    std::span<const SearchRequest> requests,
    std::span<const std::uint64_t> ordinals) const {
  std::vector<SearchResponse> responses(requests.size());
  // Requests fan across the pool; each one's own row, bank or shard
  // fan-out then runs inline (util::parallel's nesting rule), and a lone
  // request runs as a plain call that may fan out itself.
  util::parallel_for(requests.size(), [&](std::size_t i) {
    responses[i] = search_core(requests[i].query, requests[i].k, ordinals[i]);
  });
  return responses;
}

}  // namespace ferex::serve
