// A gated stub AmIndex for the async serving suites (test_async,
// test_admission), so "dispatcher is busy" and "queue is full" are
// states a test controls, not races it hopes for:
//   * every search_core blocks while the gate is closed, announcing
//     itself first (wait_entered);
//   * every backend call appends to an operation log — a search
//     -(ordinal + 1), an update its row — so the service order that
//     admission placement produced is observable;
//   * throw_on_search makes searches fail once past the gate, to carry
//     a backend exception through a future.
// Responses encode the ordinal in the first hit's sensed current, so
// parity stays checkable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "serve/am_index.hpp"

namespace ferex::serve {

class GatedIndex final : public AmIndex {
 public:
  std::size_t stored_count() const noexcept override { return 8; }
  std::size_t live_count() const noexcept override { return 8; }
  std::size_t dims() const noexcept override { return 2; }
  std::size_t bank_count() const noexcept override { return 1; }

  void close_gate() {
    std::lock_guard<std::mutex> lock(mutex_);
    gate_open_ = false;
  }

  void open_gate() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      gate_open_ = true;
    }
    gate_.notify_all();
  }

  /// Blocks until `count` search_core calls have announced themselves
  /// (entered the backend) since construction.
  void wait_entered(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [&] { return entered_ >= count; });
  }

  std::vector<long> log() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  std::atomic<bool> throw_on_search{false};

 protected:
  void do_configure(csp::DistanceMetric, int) override {}
  void do_store(const std::vector<std::vector<int>>&) override {}
  WriteReceipt do_insert(std::span<const int>) override { return {}; }
  WriteReceipt do_remove(std::size_t row) override {
    WriteReceipt receipt;
    receipt.global_row = row;
    return receipt;
  }
  WriteReceipt do_update(std::size_t row, std::span<const int>) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      log_.push_back(static_cast<long>(row));
    }
    WriteReceipt receipt;
    receipt.global_row = row;
    return receipt;
  }
  SearchResponse search_core(std::span<const int>, std::size_t k,
                             std::uint64_t ordinal) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      log_.push_back(-static_cast<long>(ordinal) - 1);
      entered_cv_.notify_all();
      gate_.wait(lock, [&] { return gate_open_; });
    }
    if (throw_on_search.load()) {
      throw std::runtime_error("GatedIndex: injected backend failure");
    }
    SearchResponse response;
    response.hits.resize(k);
    response.hits.front().sensed_current_a = static_cast<double>(ordinal);
    return response;
  }

  void validate_backend_query(std::span<const int> query) const override {
    if (query.size() != dims()) {
      throw std::invalid_argument("GatedIndex: query.size() != dims");
    }
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable gate_;
  mutable std::condition_variable entered_cv_;
  mutable std::size_t entered_ = 0;
  mutable std::vector<long> log_;
  bool gate_open_ = true;
};

}  // namespace ferex::serve
