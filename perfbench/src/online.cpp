// The two open-loop workloads and their load generator.
//
// online_circuit: AsyncShardedIndex over 4 circuit-fidelity engine shards,
//   k = 5 searches with a 50 ms budget plus 5% in-place updates.
// online_churn:   AsyncAmIndex over one nominal-fidelity EngineIndex with
//   its WAL attached; 30% writes split evenly over insert, remove and
//   update, so the live count stays flat.
//
// Each run: Poisson arrivals at a fixed offered rate for 60% of the
// window, then a closed loop with kWindow requests outstanding over a
// fixed number of operations (capacity). Every input — database, queries,
// write vectors, target rows, arrival times — is generated from the seed
// before the window opens. Afterwards every served response is checked
// against the synchronous const core replayed at its ordinal against the
// same write prefix, and the index is recovered from its WAL.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "serve/async_index.hpp"
#include "serve/async_sharded.hpp"
#include "serve/durable.hpp"
#include "serve/durable_sharded.hpp"
#include "serve/engine_index.hpp"
#include "serve/reject.hpp"
#include "serve/sharded_index.hpp"
#include "util/bounded_queue.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ferex::csp::DistanceMetric;
using ferex::serve::SearchRequest;
using ferex::serve::SearchResponse;

constexpr std::size_t kDims = 64;
constexpr std::size_t kK = 5;
constexpr int kBits = 2;
constexpr DistanceMetric kMetric = DistanceMetric::kHamming;
constexpr std::uint64_t kDeadlineUs = 50'000;
constexpr std::size_t kQueries = 512;
constexpr std::size_t kFresh = 512;
/// Set-up and recovery are timed several times: set-up reports the median
/// of its reps, recovery their interquartile mean. The reps come in two
/// groups apart in time, one on each side of the reference check (for
/// set-up: before the window, where the last rep builds the served index,
/// and after the check), because a shared host has slow spells of a few
/// seconds that would otherwise catch every rep.
constexpr int kSetupReps = 6;  // per group
/// Recovery reps per group: at least `min`, then more while the reps so
/// far took under `budget_s`, up to `max` (counts include group 0).
struct Reps {
  std::size_t min;
  std::size_t max;
  double budget_s;
};
constexpr Reps kRecoverReps[2] = {{2, 5, 3.0}, {4, 11, 6.0}};
/// Open-loop latency slices (see sliced_percentile) and closed-loop
/// throughput buckets, whose median is the reported capacity. The p99
/// and p90 take one slice per kP99SliceSamples searches: a host stall of a
/// few milliseconds then spoils a minority of the slices, not the median.
constexpr std::size_t kSlices = 10;
constexpr std::size_t kP99SliceSamples = 400;
constexpr std::size_t kCapacityBuckets = 10;
/// Outstanding requests in the closed-loop capacity phase.
constexpr std::ptrdiff_t kWindow = 32;
/// Share of the window run open loop; the rest measures capacity.
constexpr double kOpenShare = 0.6;
/// A generator whose p99 lateness exceeds this fell behind: the run is
/// invalid, since its latencies would blame the server for the client.
constexpr double kMaxLagP99Us = 50'000;
/// How long before each due time the generator stops sleeping and spins.
constexpr auto kSpin = std::chrono::microseconds(300);
/// Requests replayed layer by layer in the traced run.
constexpr std::size_t kReplaySample = 128;

struct Op {
  enum class Kind : std::uint8_t { kSearch, kInsert, kRemove, kUpdate };
  Kind kind = Kind::kSearch;
  double at_s = 0.0;          ///< scheduled offset (open-loop ops)
  std::size_t item = 0;       ///< query (search) or fresh vector (writes)
  std::size_t row = 0;        ///< target row (remove, update)
  std::uint64_t ordinal = 0;  ///< pinned noise-stream ordinal (search)
};

struct Outcome {
  enum class Status : std::uint8_t { kNotSent, kOk, kRejected, kFailed };
  Status status = Status::kNotSent;
  double latency_us = 0.0;
  Clock::time_point done{};
  SearchResponse response;  ///< searches
  std::size_t row = 0;      ///< writes: the receipt's row
};

struct Spec {
  double offered_qps;
  /// Write shares by kind; the rest are searches.
  double insert_share;
  double remove_share;
  double update_share;
  /// Nominal closed-loop rate: the closed loop sends this rate times its
  /// share of the window, a fixed count, so every seed's WAL has the same
  /// length and recovery replays the same number of records.
  double capacity_qps;
};

/// The seeded op stream: Poisson arrivals for the open-loop part, then
/// untimed ops for the closed loop. The arrivals are conditioned on their
/// count (offered rate x window, at uniform times), so every seed offers
/// exactly the same load. Target rows follow a shadow of the live set so
/// every write is valid when applied in order: removes and updates pick a
/// live row, inserts land where the index puts them.
struct OpStream {
  std::vector<Op> ops;
  std::size_t open_count = 0;  ///< ops [0, open_count) are timed
};

OpStream make_ops(const Spec& spec, double open_s, double closed_s,
                  std::size_t rows, std::uint64_t seed) {
  ferex::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<std::size_t> live_rows(rows);
  for (std::size_t r = 0; r < rows; ++r) live_rows[r] = r;
  std::vector<std::size_t> freed;  // kept sorted descending: back = lowest
  std::size_t stored = rows;
  std::uint64_t ordinal = 0;

  OpStream stream;
  stream.open_count =
      static_cast<std::size_t>(std::llround(spec.offered_qps * open_s));
  std::vector<double> arrivals(stream.open_count);
  for (double& at : arrivals) at = rng.uniform() * open_s;
  std::sort(arrivals.begin(), arrivals.end());
  const auto closed_count =
      static_cast<std::size_t>(std::llround(spec.capacity_qps * closed_s));
  for (std::size_t i = 0; i < stream.open_count + closed_count; ++i) {
    Op op;
    if (i < stream.open_count) op.at_s = arrivals[i];
    const double u = rng.uniform();
    if (u < spec.insert_share) {
      op.kind = Op::Kind::kInsert;
      op.item = rng.uniform_below(kFresh);
      std::size_t row = stored;
      if (!freed.empty()) {
        row = freed.back();
        freed.pop_back();
      } else {
        ++stored;
      }
      live_rows.push_back(row);
      op.row = row;
    } else if (u < spec.insert_share + spec.remove_share &&
               live_rows.size() > kK) {
      op.kind = Op::Kind::kRemove;
      const std::size_t at = rng.uniform_below(live_rows.size());
      op.row = live_rows[at];
      live_rows[at] = live_rows.back();
      live_rows.pop_back();
      freed.insert(std::upper_bound(freed.begin(), freed.end(), op.row,
                                    std::greater<>()),
                   op.row);
    } else if (u < spec.insert_share + spec.remove_share +
                       spec.update_share) {
      op.kind = Op::Kind::kUpdate;
      op.item = rng.uniform_below(kFresh);
      op.row = live_rows[rng.uniform_below(live_rows.size())];
    } else {
      op.kind = Op::Kind::kSearch;
      op.item = rng.uniform_below(kQueries);
      op.ordinal = ordinal++;
    }
    stream.ops.push_back(op);
  }
  return stream;
}

// ------------------------------------------------------ server adapters --

/// AsyncShardedIndex: tickets gather and merge on the completion thread.
struct ShardedServer {
  ferex::serve::AsyncShardedIndex& async;
  using SearchHandle = ferex::serve::AsyncShardedIndex::Ticket;
  using WriteHandle = ferex::serve::AsyncShardedIndex::PendingWrite;

  SearchHandle search(SearchRequest request) {
    return async.submit(std::move(request));
  }
  WriteHandle write(const Op& op, const Inputs& inputs) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        return async.submit_insert(inputs.fresh[op.item]);
      case Op::Kind::kRemove:
        return async.submit_remove(op.row);
      default:
        return async.submit_update(op.row, inputs.fresh[op.item]);
    }
  }
  static SearchResponse finish(SearchHandle& h) { return h.get(); }
  static std::size_t finish(WriteHandle& h) { return h.get().global_row; }
};

/// AsyncAmIndex: plain futures.
struct SingleServer {
  ferex::serve::AsyncAmIndex& async;
  using SearchHandle = std::future<SearchResponse>;
  using WriteHandle = std::future<ferex::serve::WriteReceipt>;

  SearchHandle search(SearchRequest request) {
    return async.submit(std::move(request));
  }
  WriteHandle write(const Op& op, const Inputs& inputs) {
    switch (op.kind) {
      case Op::Kind::kInsert:
        return async.submit_insert(inputs.fresh[op.item]);
      case Op::Kind::kRemove:
        return async.submit_remove(op.row);
      default:
        return async.submit_update(op.row, inputs.fresh[op.item]);
    }
  }
  static SearchResponse finish(SearchHandle& h) { return h.get(); }
  static std::size_t finish(WriteHandle& h) { return h.get().global_row; }
};

// ---------------------------------------------------------- load generator

/// One submitting thread (the caller) plus one completion thread that
/// waits on results in submission order.
template <typename Server>
class LoadGen {
 public:
  LoadGen(Server server, const std::vector<Op>& ops, const Inputs& inputs,
          Trace* trace)
      : server_(server),
        ops_(ops),
        inputs_(inputs),
        trace_(trace),
        outcomes_(ops.size()),
        in_flight_(ops.size()),
        completer_([this] { complete_loop(); }) {}

  ~LoadGen() { stop(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends ops [0, count) on their schedule from `start`; returns once
  /// all their results are in.
  void run_open(std::size_t count, Clock::time_point start) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(ops_[i].at_s));
      // Sleep to just short of the due time, then spin: a sleeping
      // thread's wake-up lateness on a virtual CPU is hundreds of
      // microseconds and varies from run to run.
      std::this_thread::sleep_until(due - kSpin);
      while (Clock::now() < due) {
      }
      lag_us_.push_back(us_between(due, Clock::now()));
      send(i, due, false);
    }
    drain();
  }

  /// Closed loop over the ops from `first` on: keeps kWindow requests
  /// outstanding until every op is sent, then waits for the results.
  void run_closed(std::size_t first) {
    for (std::size_t i = first; i < ops_.size(); ++i) {
      slots_.acquire();
      send(i, Clock::now(), true);
    }
    drain();
  }

  /// Closes the completion queue and joins the completion thread.
  void stop() {
    in_flight_.close();
    if (completer_.joinable()) completer_.join();
  }

  std::vector<Outcome>& outcomes() { return outcomes_; }
  const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  struct InFlight {
    std::size_t op = 0;
    Clock::time_point due{};
    bool closed_loop = false;
    std::optional<typename Server::SearchHandle> search;
    std::optional<typename Server::WriteHandle> write;
  };

  void send(std::size_t i, Clock::time_point due, bool closed_loop) {
    const Op& op = ops_[i];
    InFlight pending{i, due, closed_loop, std::nullopt, std::nullopt};
    try {
      if (op.kind == Op::Kind::kSearch) {
        // Open-loop searches carry the latency budget; the closed loop
        // measures throughput, so its requests carry none.
        pending.search.emplace(server_.search(SearchRequest(
            inputs_.queries[op.item], kK, op.ordinal,
            ferex::serve::SubmitOptions{
                closed_loop ? 0 : kDeadlineUs,
                ferex::serve::SubmitOptions::Priority::kClassDefault})));
      } else {
        traced(trace_, "serve.async.submit_write", Trace::kNoParent, i, [&] {
          pending.write.emplace(server_.write(op, inputs_));
        });
      }
    } catch (const ferex::serve::RejectedRequest&) {
      outcomes_[i].status = Outcome::Status::kRejected;
    } catch (const std::exception&) {
      outcomes_[i].status = Outcome::Status::kFailed;
    }
    if (outcomes_[i].status != Outcome::Status::kNotSent) {
      if (closed_loop) slots_.release();
      return;
    }
    ++sent_;
    in_flight_.try_push(std::move(pending));
  }

  void drain() {
    while (done_.load(std::memory_order_acquire) < sent_) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void complete_loop() {
    InFlight pending;
    while (in_flight_.pop(pending)) {
      Outcome& out = outcomes_[pending.op];
      try {
        if (pending.search) {
          out.response = Server::finish(*pending.search);
        } else {
          out.row = Server::finish(*pending.write);
        }
        out.status = Outcome::Status::kOk;
      } catch (const ferex::serve::RejectedRequest&) {
        out.status = Outcome::Status::kRejected;
      } catch (const std::exception&) {
        out.status = Outcome::Status::kFailed;
      }
      out.done = Clock::now();
      out.latency_us = us_between(pending.due, out.done);
      if (pending.closed_loop) slots_.release();
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  Server server_;
  const std::vector<Op>& ops_;
  const Inputs& inputs_;
  Trace* trace_;
  std::vector<Outcome> outcomes_;
  std::vector<double> lag_us_;
  std::size_t sent_ = 0;
  std::atomic<std::size_t> done_{0};
  std::counting_semaphore<kWindow> slots_{kWindow};
  ferex::util::BoundedQueue<InFlight> in_flight_;
  // Declared last: started after every member. The generator is a client
  // of the serving stack, not part of it, so it owns its one thread.
  std::thread completer_;  // ferex-lint: allow(raw-thread)
};

// ------------------------------------------------------------- the check

/// Replays the accepted ops in submission order against a synchronous
/// reference index, comparing each served response (bit-identical) and
/// write outcome. Searches between two writes are replayed in parallel.
/// Also scores recall (and, at nominal fidelity, exact top-k equality on
/// a sample) against a shadow of the live rows.
void check_against_reference(ferex::serve::AmIndex& reference,
                             const std::vector<Op>& ops,
                             std::vector<Outcome>& outcomes,
                             const Inputs& inputs, bool nominal,
                             std::size_t exact_stride, Result& result,
                             double& recall) {
  std::vector<std::vector<int>> rows = inputs.database;
  std::vector<std::uint8_t> live(rows.size(), 1);
  std::size_t within = 0;
  std::size_t hits = 0;
  std::vector<std::size_t> segment;
  const auto flush = [&] {
    std::vector<std::size_t> segment_within(segment.size(), 0);
    std::vector<std::size_t> segment_hits(segment.size(), 0);
    std::vector<std::string> errors(segment.size());
    ferex::util::parallel_for(segment.size(), [&](std::size_t j) {
      const std::size_t i = segment[j];
      const Op& op = ops[i];
      const auto& query = inputs.queries[op.item];
      const Outcome& out = outcomes[i];
      const auto expected =
          reference.search_at(SearchRequest(query, kK), op.ordinal);
      if (!same_response(expected, out.response)) {
        errors[j] = "served response differs from search_at at ordinal " +
                    std::to_string(op.ordinal);
        return;
      }
      if (op.ordinal % exact_stride != 0) return;
      const auto exact = exact_topk(kMetric, rows, live, query, kK);
      segment_within[j] =
          hits_within(kMetric, rows, query, out.response, exact.back().distance);
      segment_hits[j] = out.response.hits.size();
      if (!nominal) return;
      bool same = exact.size() == out.response.hits.size();
      for (std::size_t h = 0; same && h < exact.size(); ++h) {
        same = exact[h].row == out.response.hits[h].global_row &&
               exact[h].distance == out.response.hits[h].nominal_distance;
      }
      if (!same) {
        errors[j] = "nominal hits differ from the exact top-k at ordinal " +
                    std::to_string(op.ordinal);
      }
    });
    for (std::size_t j = 0; j < segment.size(); ++j) {
      if (!errors[j].empty()) result.mismatch(errors[j]);
      within += segment_within[j];
      hits += segment_hits[j];
    }
    segment.clear();
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Outcome& out = outcomes[i];
    if (out.status == Outcome::Status::kNotSent ||
        out.status == Outcome::Status::kRejected) {
      continue;  // never accepted (or shed): nothing served to check
    }
    if (op.kind == Op::Kind::kSearch) {
      if (out.status == Outcome::Status::kOk) segment.push_back(i);
      continue;
    }
    flush();
    bool failed = false;
    std::size_t row = op.row;
    try {
      switch (op.kind) {
        case Op::Kind::kInsert:
          row = reference.insert(inputs.fresh[op.item]).global_row;
          break;
        case Op::Kind::kRemove:
          reference.remove(op.row);
          break;
        default:
          reference.update(op.row, inputs.fresh[op.item]);
          break;
      }
    } catch (const std::exception&) {
      failed = true;
    }
    if (failed != (out.status == Outcome::Status::kFailed) ||
        (!failed && row != out.row)) {
      result.mismatch("write " + std::to_string(i) +
                      " outcome differs from the synchronous sequence");
    }
    if (failed) continue;
    if (row >= rows.size()) {
      rows.resize(row + 1);
      live.resize(row + 1, 0);
    }
    if (op.kind == Op::Kind::kRemove) {
      live[row] = 0;
    } else {
      rows[row] = inputs.fresh[op.item];
      live[row] = 1;
    }
  }
  flush();
  recall = hits ? static_cast<double>(within) / static_cast<double>(hits) : 0;
}

ferex::serve::AsyncOptions serving_options(std::size_t ops) {
  ferex::serve::AsyncOptions options;
  options.queue_depth = ops + 1;  // the budget, not the queue, sheds
  options.max_batch = 32;
  options.max_wait_us = 100;
  // Shed on measured queue wait only: the submit-time estimate scales
  // one slow op's service time by the queue length, which sheds at low
  // load on a noisy host.
  options.admission.shed = ferex::serve::AdmissionPolicy::ShedPolicy::kDispatchOnly;
  return options;
}

/// The end-to-end metrics of one run from its outcomes: the open-loop
/// part gives latency, achieved rate and SLO share; the closed loop gives
/// capacity.
void summarize(const OpStream& stream, const std::vector<Outcome>& outcomes,
               double open_wall_s, Clock::time_point closed_start,
               double closed_s,
               const std::vector<double>& lag_us, Result& result) {
  std::vector<double> search_us;
  std::vector<double> write_us;
  std::size_t open_ok = 0;
  std::size_t closed_ok = 0;
  std::vector<double> bucket_ops(kCapacityBuckets, 0.0);
  std::size_t searches = 0;
  std::size_t slo_met = 0;
  for (std::size_t i = 0; i < stream.ops.size(); ++i) {
    const Outcome& out = outcomes[i];
    const bool ok = out.status == Outcome::Status::kOk;
    const bool search = stream.ops[i].kind == Op::Kind::kSearch;
    ++result.attempted;
    if (!ok) ++result.failed;
    if (i >= stream.open_count) {
      if (!ok) continue;
      ++closed_ok;
      const double at = s_between(closed_start, out.done) / closed_s;
      if (at >= 0.0 && at < 1.0) {
        bucket_ops[static_cast<std::size_t>(at * kCapacityBuckets)] += 1.0;
      }
      continue;
    }
    open_ok += ok ? 1 : 0;
    if (search) {
      ++searches;
      if (ok) search_us.push_back(out.latency_us);
      if (ok && out.latency_us <= static_cast<double>(kDeadlineUs)) ++slo_met;
    } else if (ok) {
      write_us.push_back(out.latency_us);
    }
  }
  result.set("achieved_qps", static_cast<double>(open_ok) / open_wall_s,
             "1/s");
  result.set("capacity_qps",
             median(bucket_ops) * kCapacityBuckets / closed_s, "1/s");
  const std::size_t p99_slices =
      std::max<std::size_t>(kSlices, search_us.size() / kP99SliceSamples);
  result.set("search_p50_us", sliced_percentile(search_us, kSlices, 50), "us");
  result.set("search_p90_us", sliced_percentile(search_us, p99_slices, 90),
             "us");
  result.set("search_p99_us", sliced_percentile(search_us, p99_slices, 99),
             "us");
  result.set("write_p99_us", percentile(write_us, 99), "us");
  result.set("failed_frac",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
             "fraction");
  result.set("slo_met_frac",
             static_cast<double>(slo_met) /
                 static_cast<double>(std::max<std::size_t>(1, searches)),
             "fraction");
  const double lag_p99 = percentile(lag_us, 99);
  result.set("loadgen.lag_p99_us", lag_p99, "us");
  if (lag_p99 > kMaxLagP99Us) result.valid = false;
  {
    std::string line = "open-loop search p50/p99 by slice (us):";
    const std::size_t n = search_us.size();
    for (std::size_t s = 0; s < kSlices; ++s) {
      const std::vector<double> slice(search_us.begin() + n * s / kSlices,
                                      search_us.begin() + n * (s + 1) / kSlices);
      char part[64];
      std::snprintf(part, sizeof part, " %.0f/%.0f", percentile(slice, 50),
                    percentile(slice, 99));
      line += part;
    }
    line += "; capacity buckets:";
    for (const double b : bucket_ops) {
      char part[32];
      std::snprintf(part, sizeof part, " %.0f", b);
      line += part;
    }
    result.note(line);
  }
  result.note(std::string("open loop: ") + std::to_string(search_us.size()) +
              " search and " + std::to_string(write_us.size()) +
              " write latency samples; closed loop: " +
              std::to_string(closed_ok) + " ops completed with " +
              std::to_string(kWindow) + " outstanding");
}

/// Queue-side per-layer metrics from the sessions' own ServeStats, one
/// per shard: p50s averaged, p99s the worst shard, counts summed.
void add_serve_stats(const std::vector<ferex::serve::ServeStats>& sessions,
                     Result& result) {
  double wait_p50 = 0.0;
  double wait_p99 = 0.0;
  double write_wait_p99 = 0.0;
  double served = 0.0;
  double batches = 0.0;
  double shed = 0.0;
  double overloaded = 0.0;
  for (const auto& s : sessions) {
    wait_p50 += s.search.queue_wait_us.p50_us /
                static_cast<double>(sessions.size());
    wait_p99 = std::max(wait_p99, s.search.queue_wait_us.p99_us);
    write_wait_p99 = std::max(write_wait_p99, s.write.queue_wait_us.p99_us);
    served += static_cast<double>(s.search.served);
    batches += static_cast<double>(s.batches);
    shed += static_cast<double>(s.shed_submit + s.shed_dispatch);
    overloaded += static_cast<double>(s.search.rejected_overload +
                                      s.write.rejected_overload);
  }
  result.set("serve.async.queue_wait_p50_us", wait_p50, "us");
  result.set("serve.async.queue_wait_p99_us", wait_p99, "us");
  result.set("serve.async.write_queue_wait_p99_us", write_wait_p99, "us");
  result.set("serve.async.mean_batch", batches > 0 ? served / batches : 0.0,
             "requests");
  result.set("serve.async.shed", shed, "count");
  result.set("serve.async.overloaded", overloaded, "count");
}

void add_scl_stats(const std::vector<const ferex::core::FerexEngine*>& engines,
                   Result& result) {
  ferex::circuit::SclSolveStats total;
  for (const auto* engine : engines) {
    const auto stats = engine->array()->scl_solve_stats();
    total.solves += stats.solves;
    total.iterations += stats.iterations;
    total.non_converged += stats.non_converged;
  }
  result.set("circuit.scl_solves", static_cast<double>(total.solves), "count");
  result.set("circuit.scl_iters_per_solve",
             total.solves ? static_cast<double>(total.iterations) /
                                static_cast<double>(total.solves)
                          : 0.0,
             "iterations");
  result.set("circuit.scl_nonconverged",
             static_cast<double>(total.non_converged), "count");
}

/// The first `n` searches served OK, as requests plus their ordinals.
void replay_sample(const OpStream& stream, const std::vector<Outcome>& outcomes,
                   const Inputs& inputs, std::vector<SearchRequest>& requests,
                   std::vector<std::uint64_t>& ordinals) {
  for (std::size_t i = 0;
       i < stream.open_count && requests.size() < kReplaySample; ++i) {
    const Op& op = stream.ops[i];
    if (op.kind != Op::Kind::kSearch ||
        outcomes[i].status != Outcome::Status::kOk) {
      continue;
    }
    requests.emplace_back(inputs.queries[op.item], kK);
    ordinals.push_back(op.ordinal);
  }
}

/// Probe queries must be answered identically by the live and the
/// recovered index.
void check_recovered(const ferex::serve::AmIndex& live,
                     const ferex::serve::AmIndex& recovered,
                     const Inputs& inputs, Result& result) {
  for (std::size_t q = 0; q < inputs.queries.size(); q += 16) {
    const SearchRequest request(inputs.queries[q], kK);
    const std::uint64_t ordinal = 1'000'000 + q;
    if (!same_response(live.search_at(request, ordinal),
                       recovered.search_at(request, ordinal))) {
      result.mismatch("recovered index differs on probe query " +
                      std::to_string(q));
    }
  }
}

bool more_reps(const std::vector<double>& reps, const Reps& limit) {
  double spent = 0.0;
  for (const double r : reps) spent += r;
  return reps.size() < limit.min ||
         (reps.size() < limit.max && spent < limit.budget_s);
}

}  // namespace

Result run_online_circuit(const RunOptions& options) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kRows = 512;
  constexpr Spec kSpec{120.0, 0.0, 0.0, 0.05, 650.0};
  Result result;
  Trace* trace = options.trace;
  const Inputs inputs =
      make_inputs(kRows, kFresh, kQueries, kDims, kBits, options.seed);
  const double open_s = options.seconds * kOpenShare;
  const OpStream stream =
      make_ops(kSpec, open_s, options.seconds - open_s, kRows, options.seed);

  ferex::serve::ShardedOptions sharded;
  sharded.shards = kShards;
  sharded.shard_block = 64;
  sharded.backend = ferex::serve::ShardBackend::kEngine;
  sharded.engine.fidelity = ferex::core::SearchFidelity::kCircuit;
  sharded.engine.seed = options.seed + 1;
  const auto engines = [](const ferex::serve::ShardedIndex& fleet) {
    std::vector<const ferex::core::FerexEngine*> out;
    for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
      out.push_back(
          &dynamic_cast<const ferex::serve::EngineIndex&>(fleet.shard(s))
               .engine());
    }
    return out;
  };

  // Set-up: manifest + WAL open + configure + store on a fresh fleet in a
  // directory of its own (see kSetupReps).
  std::vector<double> setup_s;
  int dirs = 0;
  const auto set_up = [&](std::unique_ptr<ferex::serve::ShardedIndex>& fleet,
                          std::unique_ptr<ferex::serve::DurableShardedIndex>&
                              durable) {
    const std::string dir =
        options.work_dir + "/circuit-" + std::to_string(dirs++);
    std::filesystem::create_directories(dir);
    durable.reset();
    fleet = std::make_unique<ferex::serve::ShardedIndex>(sharded);
    const auto start = Clock::now();
    durable = std::make_unique<ferex::serve::DurableShardedIndex>(
        *fleet, dir,
        ferex::serve::DurableOptions{ferex::util::SyncPolicy::kOnClose, 0.0});
    traced(trace, "csp.configure", Trace::kNoParent, 0,
           [&] { durable->configure(kMetric, kBits); });
    traced(trace, "core.store", Trace::kNoParent, 0,
           [&] { durable->store(inputs.database); });
    setup_s.push_back(s_between(start, Clock::now()));
  };
  std::unique_ptr<ferex::serve::ShardedIndex> fleet;
  std::unique_ptr<ferex::serve::DurableShardedIndex> durable;
  for (int rep = 0; rep < kSetupReps; ++rep) set_up(fleet, durable);
  for (const auto* engine : engines(*fleet)) {
    engine->array()->reset_scl_solve_stats();
  }

  std::vector<Outcome> outcomes;
  std::vector<ferex::serve::ServeStats> stats;
  double open_wall_s = 0.0;
  double closed_s = 0.0;
  Clock::time_point closed_start;
  std::vector<double> lag_us;
  {
    const auto wals = durable->shard_wals();
    ferex::serve::AsyncShardedIndex async(
        *fleet, serving_options(stream.ops.size()), wals);
    LoadGen<ShardedServer> gen(ShardedServer{async}, stream.ops, inputs,
                               trace);
    warm_up_cpus(kWarmUpS);
    const auto start = Clock::now();
    gen.run_open(stream.open_count, start);
    open_wall_s = s_between(start, Clock::now());
    for (std::size_t s = 0; s < async.shard_count(); ++s) {
      stats.push_back(async.shard_session(s).stats());
    }
    add_scl_stats(engines(*fleet), result);
    closed_start = Clock::now();
    gen.run_closed(stream.open_count);
    closed_s = s_between(closed_start, Clock::now());
    gen.stop();
    async.shutdown();
    outcomes = std::move(gen.outcomes());
    lag_us = gen.lag_us();
  }
  summarize(stream, outcomes, open_wall_s, closed_start, closed_s, lag_us,
            result);
  add_serve_stats(stats, result);

  // Recovery: every shard replays its own WAL, then routing is rebuilt
  // (see kRecoverReps).
  std::vector<std::string> shard_dirs;
  for (std::size_t s = 0; s < kShards; ++s) {
    shard_dirs.push_back(durable->shard_dir(s));
  }
  durable.reset();
  std::vector<double> recover_s;
  std::uint64_t records = 0;
  std::unique_ptr<ferex::serve::ShardedIndex> recovered;
  const auto recover = [&] {
    recovered = std::make_unique<ferex::serve::ShardedIndex>(sharded);
    records = 0;
    traced(trace, "serve.durable.recover", Trace::kNoParent, 0, [&] {
      const auto t0 = Clock::now();
      for (std::size_t s = 0; s < kShards; ++s) {
        records +=
            ferex::serve::recover_index(recovered->shard(s), shard_dirs[s]);
      }
      recovered->rebuild_routing();
      recover_s.push_back(s_between(t0, Clock::now()));
    });
  };
  while (more_reps(recover_s, kRecoverReps[0])) recover();

  ferex::serve::ShardedIndex reference(sharded);
  reference.configure(kMetric, kBits);
  reference.store(inputs.database);
  double recall = 0.0;
  check_against_reference(reference, stream.ops, outcomes, inputs, false, 1,
                          result, recall);
  result.set("recall_at_k", recall, "fraction");
  if (trace) {
    std::vector<SearchRequest> requests;
    std::vector<std::uint64_t> ordinals;
    replay_sample(stream, outcomes, inputs, requests, ordinals);
    replay_layers(reference, requests, ordinals, *trace);
    time_pool_speedup(reference, requests, ordinals, *trace);
  }

  while (more_reps(recover_s, kRecoverReps[1])) recover();
  check_recovered(*fleet, *recovered, inputs, result);
  {
    std::unique_ptr<ferex::serve::ShardedIndex> spare;
    std::unique_ptr<ferex::serve::DurableShardedIndex> spare_durable;
    for (int rep = 0; rep < kSetupReps; ++rep) set_up(spare, spare_durable);
  }
  result.set_median_of("setup_s", setup_s, "s");
  result.set_interquartile_mean_of("serve.durable.recover_s", recover_s, "s");
  result.set("serve.durable.records_replayed", static_cast<double>(records),
             "count");
  result.set("serve.durable.recover_us_per_record",
             result.metrics["serve.durable.recover_s"].value * 1e6 /
                 static_cast<double>(records),
             "us");
  return result;
}

Result run_online_churn(const RunOptions& options) {
  constexpr std::size_t kRows = 4096;
  constexpr Spec kSpec{2000.0, 0.10, 0.10, 0.10, 10'000.0};
  Result result;
  Trace* trace = options.trace;
  const Inputs inputs =
      make_inputs(kRows, kFresh, kQueries, kDims, kBits, options.seed);
  const double open_s = options.seconds * kOpenShare;
  const OpStream stream =
      make_ops(kSpec, open_s, options.seconds - open_s, kRows, options.seed);

  ferex::core::FerexOptions engine;
  engine.fidelity = ferex::core::SearchFidelity::kNominal;
  engine.seed = options.seed + 1;

  // Set-up: WAL open + configure + store on a fresh index in a directory
  // of its own (see kSetupReps).
  std::vector<double> setup_s;
  int dirs = 0;
  std::string dir;
  const auto set_up =
      [&](std::unique_ptr<ferex::serve::EngineIndex>& index,
          std::unique_ptr<ferex::serve::DurableIndex>& durable) {
        dir = options.work_dir + "/churn-" + std::to_string(dirs++);
        std::filesystem::create_directories(dir);
        durable.reset();
        index = std::make_unique<ferex::serve::EngineIndex>(engine);
        const auto start = Clock::now();
        durable = std::make_unique<ferex::serve::DurableIndex>(
            *index, dir,
            ferex::serve::DurableOptions{ferex::util::SyncPolicy::kOnClose,
                                         0.0});
        traced(trace, "csp.configure", Trace::kNoParent, 0,
               [&] { durable->configure(kMetric, kBits); });
        traced(trace, "core.store", Trace::kNoParent, 0,
               [&] { durable->store(inputs.database); });
        setup_s.push_back(s_between(start, Clock::now()));
      };
  std::unique_ptr<ferex::serve::EngineIndex> index;
  std::unique_ptr<ferex::serve::DurableIndex> durable;
  for (int rep = 0; rep < kSetupReps; ++rep) set_up(index, durable);
  const std::string live_dir = dir;

  std::vector<Outcome> outcomes;
  std::vector<ferex::serve::ServeStats> stats;
  double open_wall_s = 0.0;
  double closed_s = 0.0;
  Clock::time_point closed_start;
  std::vector<double> lag_us;
  {
    auto async_options = serving_options(stream.ops.size());
    async_options.wal = &durable->wal();
    ferex::serve::AsyncAmIndex async(*index, async_options);
    LoadGen<SingleServer> gen(SingleServer{async}, stream.ops, inputs, trace);
    warm_up_cpus(kWarmUpS);
    const auto start = Clock::now();
    gen.run_open(stream.open_count, start);
    open_wall_s = s_between(start, Clock::now());
    stats.push_back(async.stats());
    closed_start = Clock::now();
    gen.run_closed(stream.open_count);
    closed_s = s_between(closed_start, Clock::now());
    gen.stop();
    async.shutdown();
    outcomes = std::move(gen.outcomes());
    lag_us = gen.lag_us();
  }
  summarize(stream, outcomes, open_wall_s, closed_start, closed_s, lag_us,
            result);
  add_serve_stats(stats, result);
  add_scl_stats({&index->engine()}, result);

  // Recovery: replay the whole WAL (no snapshot) into a fresh index (see
  // kRecoverReps).
  durable.reset();
  std::vector<double> recover_s;
  std::uint64_t records = 0;
  std::unique_ptr<ferex::serve::EngineIndex> recovered;
  const auto recover = [&] {
    recovered = std::make_unique<ferex::serve::EngineIndex>(engine);
    traced(trace, "serve.durable.recover", Trace::kNoParent, 0, [&] {
      const auto t0 = Clock::now();
      records = ferex::serve::recover_index(*recovered, live_dir);
      recover_s.push_back(s_between(t0, Clock::now()));
    });
  };
  while (more_reps(recover_s, kRecoverReps[0])) recover();

  ferex::serve::EngineIndex reference(engine);
  reference.configure(kMetric, kBits);
  reference.store(inputs.database);
  // Exact top-k on a sample of about 4000 searches (each scans every row).
  const std::size_t searches = static_cast<std::size_t>(std::count_if(
      stream.ops.begin(), stream.ops.end(),
      [](const Op& op) { return op.kind == Op::Kind::kSearch; }));
  double recall = 0.0;
  check_against_reference(reference, stream.ops, outcomes, inputs,
                          true, std::max<std::size_t>(1, searches / 4000),
                          result, recall);
  result.set("recall_at_k", recall, "fraction");
  if (trace) {
    std::vector<SearchRequest> requests;
    std::vector<std::uint64_t> ordinals;
    replay_sample(stream, outcomes, inputs, requests, ordinals);
    replay_layers(reference, requests, ordinals, *trace);
    time_pool_speedup(reference, requests, ordinals, *trace);
  }

  while (more_reps(recover_s, kRecoverReps[1])) recover();
  check_recovered(*index, *recovered, inputs, result);
  {
    std::unique_ptr<ferex::serve::EngineIndex> spare;
    std::unique_ptr<ferex::serve::DurableIndex> spare_durable;
    for (int rep = 0; rep < kSetupReps; ++rep) set_up(spare, spare_durable);
  }
  result.set_median_of("setup_s", setup_s, "s");
  result.set_interquartile_mean_of("serve.durable.recover_s", recover_s, "s");
  result.set("serve.durable.records_replayed", static_cast<double>(records),
             "count");
  result.set("serve.durable.recover_us_per_record",
             result.metrics["serve.durable.recover_s"].value * 1e6 /
                 static_cast<double>(records),
             "us");
  return result;
}

}  // namespace perfbench
