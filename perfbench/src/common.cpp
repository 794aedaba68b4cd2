#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "data/datasets.hpp"
#include "ml/knn.hpp"
#include "ml/quantize.hpp"
#include "util/durable_file.hpp"
#include "util/parallel.hpp"

namespace perfbench {

void Result::mismatch(std::string what) {
  // Keep the report readable when one bug trips thousands of checks.
  if (mismatches.size() < 20) {
    mismatches.push_back(std::move(what));
  } else if (mismatches.size() == 20) {
    mismatches.emplace_back("(further mismatches omitted)");
  }
}

namespace {

std::string reps_note(const std::string& name, const char* statistic,
                      const std::vector<double>& reps) {
  char line[160];
  std::snprintf(line, sizeof line, "%s: %s of %zu reps, min %.6g max %.6g",
                name.c_str(), statistic, reps.size(),
                *std::min_element(reps.begin(), reps.end()),
                *std::max_element(reps.begin(), reps.end()));
  return line;
}

}  // namespace

void Result::set_median_of(const std::string& name,
                           const std::vector<double>& reps,
                           const std::string& unit) {
  set(name, median(reps), unit);
  note(reps_note(name, "median", reps));
}

void Result::set_interquartile_mean_of(const std::string& name,
                                       const std::vector<double>& reps,
                                       const std::string& unit) {
  set(name, interquartile_mean(reps), unit);
  note(reps_note(name, "interquartile mean", reps));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double interquartile_mean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size() - 2 * cut);
}

double sliced_percentile(std::span<const double> xs, std::size_t slices,
                         double p) {
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < slices; ++i) {
    const std::size_t lo = xs.size() * i / slices;
    const std::size_t hi = xs.size() * (i + 1) / slices;
    if (hi > lo) {
      per_slice.push_back(
          percentile(std::vector<double>(xs.begin() + lo, xs.begin() + hi), p));
    }
  }
  return median(std::move(per_slice));
}

void warm_up_cpus(double seconds) {
  std::atomic<std::uint64_t> sink{0};
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    ferex::util::parallel_for(ferex::util::pool_width(), [&](std::size_t i) {
      std::uint64_t x = i + 1;
      for (int j = 0; j < 1'000'000; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Inputs make_inputs(std::size_t rows, std::size_t fresh, std::size_t queries,
                   std::size_t dims, int bits, std::uint64_t seed) {
  ferex::data::SyntheticSpec spec;
  spec.name = "perfbench";
  spec.feature_count = dims;
  spec.class_count = 8;
  spec.train_size = rows + fresh;
  spec.test_size = queries;
  const auto set = ferex::data::make_synthetic(spec, seed);
  const auto quantizer = ferex::ml::Quantizer::fit(set.train_x, bits);
  const auto train = quantizer.quantize(set.train_x);
  const auto test = quantizer.quantize(set.test_x);
  Inputs inputs;
  for (std::size_t r = 0; r < train.rows(); ++r) {
    const auto row = train.row(r);
    auto& into = r < rows ? inputs.database : inputs.fresh;
    into.emplace_back(row.begin(), row.end());
  }
  for (std::size_t r = 0; r < test.rows(); ++r) {
    const auto row = test.row(r);
    inputs.queries.emplace_back(row.begin(), row.end());
  }
  return inputs;
}

std::vector<Neighbour> exact_topk(ferex::csp::DistanceMetric metric,
                                  std::span<const std::vector<int>> rows,
                                  std::span<const std::uint8_t> live,
                                  std::span<const int> query, std::size_t k) {
  std::vector<Neighbour> all;
  all.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!live.empty() && live[r] == 0) continue;
    all.push_back({ferex::ml::vector_distance(metric, query, rows[r]), r});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const Neighbour& a, const Neighbour& b) {
                      return a.distance != b.distance ? a.distance < b.distance
                                                      : a.row < b.row;
                    });
  all.resize(k);
  return all;
}

std::size_t hits_within(ferex::csp::DistanceMetric metric,
                        std::span<const std::vector<int>> rows,
                        std::span<const int> query,
                        const ferex::serve::SearchResponse& response,
                        long long kth_distance) {
  std::size_t within = 0;
  for (const auto& hit : response.hits) {
    if (hit.global_row < rows.size() &&
        ferex::ml::vector_distance(metric, query, rows[hit.global_row]) <=
            kth_distance) {
      ++within;
    }
  }
  return within;
}

bool same_response(const ferex::serve::SearchResponse& a,
                   const ferex::serve::SearchResponse& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    const auto& x = a.hits[i];
    const auto& y = b.hits[i];
    if (x.global_row != y.global_row || x.bank != y.bank ||
        x.sensed_current_a != y.sensed_current_a || x.margin_a != y.margin_a ||
        x.nominal_distance != y.nominal_distance) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- Trace --

std::int64_t Trace::record(const char* name, Clock::time_point start,
                           Clock::time_point end, std::int64_t parent,
                           std::uint64_t request) {
  const Span span{name, us_between(epoch_, start), us_between(epoch_, end),
                  parent, request};
  ferex::util::MutexLock lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, Trace::Totals> Trace::reduce() const {
  ferex::util::MutexLock lock(mutex_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, Totals> totals;
  std::map<std::string, std::set<std::uint64_t>> requests;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = totals[span.name];
    const double duration = span.end_us - span.start_us;
    ++t.count;
    t.total_us += duration;
    t.self_us += duration - child_us[i];
    requests[span.name].insert(span.request);
  }
  for (auto& [name, t] : totals) t.requests = requests[name].size();
  return totals;
}

void Trace::write(const std::string& path) const {
  std::string out;
  {
    ferex::util::MutexLock lock(mutex_);
    out.reserve(spans_.size() * 96);
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const int n = std::snprintf(
          line, sizeof line,
          "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
          "\"parent\":%lld,\"request\":%llu}\n",
          i, s.name, s.start_us, s.end_us, static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.request));
      if (n > 0) out.append(line, static_cast<std::size_t>(n));
    }
  }
  ferex::util::atomic_write_file(
      path, reinterpret_cast<const std::uint8_t*>(out.data()), out.size());
}

void add_layer_metrics(const Trace& trace, Result& result) {
  const auto totals = trace.reduce();
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Trace::Totals{} : it->second;
  };
  const auto per_ms = [](const Trace::Totals& t) {
    return t.count ? t.total_us / 1000.0 / static_cast<double>(t.count) : 0.0;
  };
  result.set("csp.configure_ms", per_ms(get("csp.configure")), "ms");
  result.set("core.store_ms", per_ms(get("core.store")), "ms");
  const auto submit = get("serve.async.submit_write");
  result.set("serve.async.write_submit_us",
             submit.count ? submit.total_us / static_cast<double>(submit.count)
                          : 0.0,
             "us");

  // The replayed span tree, per request: serve.sharded (fleet) >
  // serve.index (per shard, or the top span) > arch.banked > core.search >
  // circuit.{search,nominal,lta}.
  const auto sharded = get("serve.sharded");
  const auto index = get("serve.index");
  const double requests = static_cast<double>(index.requests);
  const auto per_request = [&](double us) {
    return requests > 0 ? us / requests : 0.0;
  };
  const double circuit_search = per_request(get("circuit.search").total_us);
  const double circuit_nominal = per_request(get("circuit.nominal").total_us);
  const double circuit_lta = per_request(get("circuit.lta").total_us);
  const double core_self = per_request(get("core.search").self_us);
  const double index_self = per_request(index.self_us);
  const double merge_self = per_request(sharded.self_us);
  const double service =
      per_request(sharded.count ? sharded.total_us : index.total_us);
  result.set("circuit.search_us", circuit_search, "us");
  result.set("circuit.nominal_us", circuit_nominal, "us");
  result.set("circuit.lta_us", circuit_lta, "us");
  result.set("core.search_self_us", core_self, "us");
  result.set("arch.fanout_self_us", per_request(get("arch.banked").self_us),
             "us");
  result.set("serve.index.self_us", index_self, "us");
  result.set("serve.sharded.scatter_us",
             sharded.count ? per_request(index.total_us) : 0.0, "us");
  result.set("serve.sharded.merge_self_us", merge_self, "us");
  const double accounted = circuit_search + circuit_nominal + circuit_lta +
                           core_self + index_self + merge_self;
  result.set("trace.accounted_frac", service > 0 ? accounted / service : 0.0,
             "fraction");
  result.note("replayed " + std::to_string(index.requests) +
              " requests layer by layer; service " + std::to_string(service) +
              " us/request");

  // Pool speedup: the sampled requests served one by one through
  // search_at, summed, over the wall time of one search_batch of them.
  const auto serial = get("util.pool.serial");
  const auto batch = get("util.pool.batch");
  result.set("util.pool.speedup",
             batch.total_us > 0 ? serial.total_us / batch.total_us : 0.0, "x");
  result.note("util.pool.speedup base: " + std::to_string(serial.total_us) +
              " us serial over " + std::to_string(batch.total_us) +
              " us batched, " + std::to_string(batch.count) + " batches");
}

}  // namespace perfbench
