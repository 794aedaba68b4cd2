// Single-query search latency and throughput across the hot-path
// kernels — the regression guard for the flattened search path.
//
// For each geometry it measures, at circuit fidelity:
//   * reference   — the retained reference kernel
//                   (CrossbarArray::search_reference): biases and
//                   per-device factors re-derived per query, then the
//                   same row solve with the portable row pass;
//   * optimized   — the cached-table flat kernel (CrossbarArray::search),
//                   with the row pass the header line names;
//   * intra-par   — the flat kernel with rows fanned across the worker
//                   pool (equals optimized on 1-core hosts);
//   * engine      — FerexEngine::search_hits_at end to end (kernel + LTA
//                   + noise), one fresh ordinal per query;
// and at nominal fidelity the reference vs. LUT-gather distance kernels.
// The headline number is the optimized/reference single-query speedup on
// the default geometry.
//
// Usage: bench_search_hotpath [--json <path>] [--queries <n>]
//                             [--geometry <rows>x<dims>]...
// Default geometries: 64x32, 128x64 (default/headline), 256x128.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/crossbar.hpp"
#include "core/ferex.hpp"
#include "data/datasets.hpp"

#include "bench_json.hpp"

namespace {

using namespace ferex;

struct Geometry {
  std::size_t rows;
  std::size_t dims;
};


/// Times fn once per query; returns per-call seconds.
template <typename Fn>
std::vector<double> time_per_query(const std::vector<std::vector<int>>& queries,
                                   Fn&& fn) {
  // Warm caches/allocator outside the measured window.
  fn(queries.front());
  return benchjson::time_calls(queries.size(),
                               [&](std::size_t i) { fn(queries[i]); });
}

benchjson::Record measure(const std::string& label, const Geometry& g,
                          const std::string& fidelity,
                          const std::vector<std::vector<int>>& queries,
                          const std::function<void(const std::vector<int>&)>&
                              fn) {
  benchjson::Record record;
  record.label = label;
  record.rows = g.rows;
  record.dims = g.dims;
  record.fidelity = fidelity;
  benchjson::fill_timing(record, time_per_query(queries, fn), 1);
  return record;
}

void print_record(const benchjson::Record& r) {
  std::printf("  %-22s %-8s %10.1f q/s   p50 %9.1f us   p95 %9.1f us\n",
              r.label.c_str(), r.fidelity.c_str(), r.qps, r.latency_p50_us,
              r.latency_p95_us);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json <path>] [--queries <n>] "
               "[--geometry <rows>x<dims>]...\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t n_queries = 48;
  std::vector<Geometry> geometries;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--queries" && i + 1 < argc) {
      const char* s = argv[++i];
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(s, &end, 10);
      if (s[0] == '-' || end == s || *end != '\0' || errno != 0 || v == 0 ||
          v > 1u << 20) {
        return usage(argv[0]);
      }
      n_queries = static_cast<std::size_t>(v);
    } else if (arg == "--geometry" && i + 1 < argc) {
      Geometry g{};
      int consumed = 0;
      if (std::sscanf(argv[++i], "%zux%zu%n", &g.rows, &g.dims,
                      &consumed) != 2 ||
          argv[i][consumed] != '\0' || g.rows == 0 || g.dims == 0 ||
          g.rows > (1 << 20) || g.dims > (1 << 20)) {
        return usage(argv[0]);
      }
      geometries.push_back(g);
    } else {
      return usage(argv[0]);
    }
  }
  if (geometries.empty()) {
    geometries = {{64, 32}, {128, 64}, {256, 128}};
  }

  std::printf("bench_search_hotpath: %zu queries per mode, "
              "hardware_concurrency=%u, row pass %s\n",
              n_queries, std::thread::hardware_concurrency(),
              circuit::row_pass_isa());

  std::vector<benchjson::Record> records;
  for (const auto& g : geometries) {
    const auto db = data::random_int_vectors(g.rows, g.dims, 4, 1);
    const auto queries = data::random_int_vectors(n_queries, g.dims, 4, 2);

    core::FerexEngine engine;
    engine.configure(csp::DistanceMetric::kHamming, 2);
    engine.store(db);
    const auto* array = engine.array();

    std::printf("\ngeometry %zux%zu (%zu devices)\n", g.rows, g.dims,
                array->device_count());

    const auto circuit_reference =
        measure("circuit_reference", g, "circuit", queries,
                [&](const std::vector<int>& q) {
                  (void)array->search_reference(q);
                });
    const auto circuit_optimized =
        measure("circuit_optimized", g, "circuit", queries,
                [&](const std::vector<int>& q) { (void)array->search(q); });
    const auto circuit_parallel = measure(
        "circuit_intra_parallel", g, "circuit", queries,
        [&](const std::vector<int>& q) { (void)array->search(q, true); });
    std::uint64_t ordinal = 0;
    const auto circuit_engine = measure(
        "circuit_engine", g, "circuit", queries,
        [&](const std::vector<int>& q) {
          (void)engine.search_hits_at(q, 1, ordinal++);
        });
    const auto nominal_reference =
        measure("nominal_reference", g, "nominal", queries,
                [&](const std::vector<int>& q) {
                  (void)array->nominal_distances_reference(q);
                });
    const auto nominal_optimized =
        measure("nominal_optimized", g, "nominal", queries,
                [&](const std::vector<int>& q) {
                  (void)array->nominal_distances(q);
                });

    for (const auto* r :
         {&circuit_reference, &circuit_optimized, &circuit_parallel,
          &circuit_engine, &nominal_reference, &nominal_optimized}) {
      print_record(*r);
      records.push_back(*r);
    }
    std::printf("  single-query speedup: circuit %.2fx   nominal %.2fx\n",
                circuit_optimized.qps / circuit_reference.qps,
                nominal_optimized.qps / nominal_reference.qps);
  }

  if (!json_path.empty() &&
      !benchjson::write_json(json_path, "bench_search_hotpath", records)) {
    return 1;
  }
  return 0;
}
