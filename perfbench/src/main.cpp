// ferex_perfbench — one seeded benchmark for the FeReX serving stack.
//
//   ferex_perfbench --workload <offline_knn|online_circuit|online_churn>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --work-dir <dir> [--trace-file <path>]
//
// Prints a report and, as the last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the workload runs twice
// (untraced, then traced, each for half of --seconds), the per-layer set
// is reported from the traced run and the difference between the two
// runs' end-to-end numbers is printed as the tracing overhead. Exits 1 on any correctness mismatch,
// 2 on bad arguments, 4 when the load generator fell behind its schedule.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "util/parallel.hpp"

namespace {

using perfbench::Result;

struct Declared {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"recall_at_k", "fraction"}, {"achieved_qps", "1/s"},
    {"capacity_qps", "1/s"},   {"search_p50_us", "us"},
};

/// The per-layer metrics; a layer a workload bypasses reports 0.
constexpr Declared kPerLayer[] = {
    {"csp.configure_ms", "ms"},
    {"core.store_ms", "ms"},
    {"circuit.search_us", "us"},
    {"circuit.nominal_us", "us"},
    {"circuit.lta_us", "us"},
    {"circuit.scl_solves", "count"},
    {"circuit.scl_iters_per_solve", "iterations"},
    {"circuit.scl_nonconverged", "count"},
    {"core.search_self_us", "us"},
    {"arch.fanout_self_us", "us"},
    {"serve.index.self_us", "us"},
    {"serve.sharded.scatter_us", "us"},
    {"serve.sharded.merge_self_us", "us"},
    {"serve.async.queue_wait_p50_us", "us"},
    {"serve.async.queue_wait_p99_us", "us"},
    {"serve.async.write_queue_wait_p99_us", "us"},
    {"serve.async.mean_batch", "requests"},
    {"serve.async.shed", "count"},
    {"serve.async.overloaded", "count"},
    {"serve.async.write_submit_us", "us"},
    {"serve.durable.recover_s", "s"},
    {"serve.durable.records_replayed", "count"},
    {"serve.durable.recover_us_per_record", "us"},
    {"util.pool.speedup", "x"},
    {"util.pool.width", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.accounted_frac", "fraction"},
    {"trace.overhead_search_p50_us", "us"},
};

int usage() {
  std::fprintf(stderr,
               "usage: ferex_perfbench --workload "
               "<offline_knn|online_circuit|online_churn> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-file <path>]\n");
  return 2;
}

Result run(const perfbench::RunOptions& options) {
  if (options.workload == "offline_knn") {
    return perfbench::run_offline_knn(options);
  }
  if (options.workload == "online_circuit") {
    return perfbench::run_online_circuit(options);
  }
  return perfbench::run_online_churn(options);
}

double value_of(const Result& result, const char* name) {
  const auto it = result.metrics.find(name);
  return it == result.metrics.end() ? 0.0 : it->second.value;
}

void print_report(const Result& result) {
  for (const auto& note : result.notes) std::printf("  %s\n", note.c_str());
  for (const auto& [name, value] : result.metrics) {
    std::printf("  %-38s %14.4f %s\n", name.c_str(), value.value,
                value.unit.c_str());
  }
}

std::string json_line(const Result& result, bool correct, bool layers) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Declared& d) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", value_of(result, d.name));
    out.append(first ? "\"" : ", \"").append(d.name);
    out.append("\": {\"value\": ").append(value);
    out.append(", \"unit\": \"").append(d.unit).append("\"}");
    first = false;
  };
  if (layers) {
    for (const auto& d : kPerLayer) emit(d);
  } else {
    for (const auto& d : kEndToEnd) emit(d);
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string trace_file;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') options.seconds = 0.0;
    } else if (flag == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || trace < 0 || options.seconds < 1.0 ||
      options.seconds > 120.0 || options.work_dir.empty() ||
      (options.workload != "offline_knn" &&
       options.workload != "online_circuit" &&
       options.workload != "online_churn")) {
    return usage();
  }

  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d nproc=%u "
              "pool_width=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              trace, std::thread::hardware_concurrency(),
              ferex::util::pool_width());
  // The traced invocation runs the workload twice; each run gets half of
  // the measured time.
  if (trace == 1) options.seconds /= 2;
  // Each run keeps its WALs in a directory of its own: a durable index
  // opened over an earlier run's directory would recover that state.
  const std::string work_root = options.work_dir;
  options.work_dir = work_root + "/untraced";
  Result result;
  try {
    perfbench::warm_up_cpus(perfbench::kWarmUpS);
    result = run(options);
    result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
    if (trace == 1) {
      // The traced run: same workload, same seed, spans recorded.
      perfbench::Trace spans(perfbench::Clock::now());
      options.trace = &spans;
      options.work_dir = work_root + "/traced";
      Result traced = run(options);
      traced.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
      perfbench::add_layer_metrics(spans, traced);
      traced.set("util.pool.width",
                 static_cast<double>(ferex::util::pool_width()), "count");
      traced.set("trace.overhead_search_p50_us",
                 value_of(traced, "search_p50_us") -
                     value_of(result, "search_p50_us"),
                 "us");
      std::printf("untraced run:\n");
      print_report(result);
      std::printf("tracing overhead (traced - untraced):\n");
      for (const auto& d : kEndToEnd) {
        std::printf("  %-38s %+14.4f %s\n", d.name,
                    value_of(traced, d.name) - value_of(result, d.name),
                    d.unit);
      }
      if (!trace_file.empty()) spans.write(trace_file);
      for (auto& m : result.mismatches) traced.mismatch(m);
      traced.valid = traced.valid && result.valid;
      result = std::move(traced);
      std::printf("traced run:\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  print_report(result);
  for (const auto& d : kEndToEnd) {
    if (result.metrics.count(d.name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n",
                   options.workload.c_str(), d.name);
      return 1;
    }
  }
  if (!result.valid) {
    std::fprintf(stderr,
                 "perfbench: INVALID run: the load generator fell behind its "
                 "schedule (loadgen.lag_p99_us %.0f)\n",
                 value_of(result, "loadgen.lag_p99_us"));
    return 4;
  }
  const bool correct = result.mismatches.empty();
  for (const auto& m : result.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", m.c_str());
  }
  std::printf("%s\n", json_line(result, correct, trace == 1).c_str());
  return correct ? 0 : 1;
}
