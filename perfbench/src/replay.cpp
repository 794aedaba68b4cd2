// Layer-by-layer replay for the traced run.
//
// The benchmark records spans only around its own calls into the
// library, so per-layer time comes from serving a sample of requests
// again one layer down at a time. Each child call is recorded under the
// span of the layer that makes it when serving, so a layer's self time
// is its span minus the calls one layer down.
#include <algorithm>
#include <vector>

#include "bench.hpp"
#include "circuit/lta.hpp"
#include "core/ferex.hpp"
#include "serve/banked_index.hpp"
#include "serve/engine_index.hpp"
#include "serve/sharded_index.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ferex::serve::SearchRequest;

/// FerexEngine::search_hits_at, then its two kernels on the same query:
/// the crossbar (ScL solves, or the nominal distance gather) and the
/// LTA's k decisions over those currents.
void replay_engine_core(const ferex::core::FerexEngine& engine,
                        std::span<const int> query, std::size_t k,
                        std::uint64_t ordinal, std::int64_t parent,
                        Trace& trace) {
  const auto core = traced(&trace, "core.search", parent, ordinal, [&] {
    (void)engine.search_hits_at(query, k, ordinal, false);
  });
  const ferex::circuit::LtaCircuit lta(engine.options().lta);
  const auto* array = engine.array();
  std::vector<double> currents;
  if (engine.options().fidelity == ferex::core::SearchFidelity::kCircuit) {
    traced(&trace, "circuit.search", core, ordinal,
           [&] { currents = array->search(query, false); });
    ferex::util::Rng rng(ordinal);
    traced(&trace, "circuit.lta", core, ordinal, [&] {
      (void)lta.decide_k_detailed(currents, array->unit_current_a(), k, &rng,
                                  array->live_mask());
    });
  } else {
    std::vector<int> distances;
    traced(&trace, "circuit.nominal", core, ordinal,
           [&] { distances = array->nominal_distances(query); });
    traced(&trace, "circuit.lta", core, ordinal, [&] {
      currents.assign(distances.begin(), distances.end());
      (void)lta.decide_k_detailed(currents, 1.0, k, nullptr,
                                  array->live_mask());
    });
  }
}

}  // namespace

void time_pool_speedup(ferex::serve::AmIndex& index,
                       std::span<const SearchRequest> requests,
                       std::span<const std::uint64_t> ordinals, Trace& trace) {
  const auto serial_start = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    (void)index.search_at(requests[i], ordinals[i]);
  }
  const auto batch_start = Clock::now();
  (void)index.search_batch(requests);
  const auto end = Clock::now();
  trace.record("util.pool.serial", serial_start, batch_start, Trace::kNoParent,
               0);
  trace.record("util.pool.batch", batch_start, end, Trace::kNoParent, 0);
}

void replay_layers(const ferex::serve::BankedIndex& index,
                   std::span<const SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace) {
  const auto& banked = index.banked();
  const ferex::circuit::LtaCircuit global_lta(banked.options().engine.lta);
  ferex::util::parallel_for(requests.size(), [&](std::size_t i) {
    const auto& request = requests[i];
    const std::uint64_t id = ordinals[i];
    const auto top = traced(&trace, "serve.index", Trace::kNoParent, id,
                            [&] { (void)index.search_at(request, id); });
    const auto arch = traced(&trace, "arch.banked", top, id, [&] {
      (void)banked.search_k_hits(request.query, request.k, false);
    });
    // BankedAm's k-NN path: every bank senses its row currents, then one
    // global LTA masks iteratively over the concatenation.
    std::vector<double> all;
    std::vector<std::uint8_t> live;
    for (std::size_t b = 0; b < banked.bank_count(); ++b) {
      const auto& engine = banked.bank(b);
      std::vector<double> currents;
      const auto core = traced(&trace, "core.search", arch, id, [&] {
        currents = engine.row_currents(request.query);
      });
      traced(&trace, "circuit.search", core, id, [&] {
        (void)engine.array()->search(request.query, false);
      });
      all.insert(all.end(), currents.begin(), currents.end());
      const auto mask = engine.live_mask();
      live.insert(live.end(), mask.begin(), mask.end());
    }
    traced(&trace, "circuit.lta", arch, id, [&] {
      (void)global_lta.decide_k_detailed(all, banked.bank(0).sense_unit(),
                                         request.k, nullptr, live);
    });
  });
}

void replay_layers(const ferex::serve::ShardedIndex& index,
                   std::span<const SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace) {
  ferex::util::parallel_for(requests.size(), [&](std::size_t i) {
    const auto& request = requests[i];
    const std::uint64_t id = ordinals[i];
    const auto top = traced(&trace, "serve.sharded", Trace::kNoParent, id,
                            [&] { (void)index.search_at(request, id); });
    // The scatter: each live shard serves k + 1 (the merge's overfetch
    // for the cross-shard margin) at the fleet ordinal.
    for (std::size_t s = 0; s < index.shard_count(); ++s) {
      const auto& shard =
          dynamic_cast<const ferex::serve::EngineIndex&>(index.shard(s));
      if (shard.live_count() == 0) continue;
      const SearchRequest sub(request.query,
                              std::min(request.k + 1, shard.live_count()));
      const auto part = traced(&trace, "serve.index", top, id,
                               [&] { (void)shard.search_at(sub, id); });
      replay_engine_core(shard.engine(), sub.query, sub.k, id, part, trace);
    }
  });
}

void replay_layers(const ferex::serve::EngineIndex& index,
                   std::span<const SearchRequest> requests,
                   std::span<const std::uint64_t> ordinals, Trace& trace) {
  ferex::util::parallel_for(requests.size(), [&](std::size_t i) {
    const auto& request = requests[i];
    const std::uint64_t id = ordinals[i];
    const auto top = traced(&trace, "serve.index", Trace::kNoParent, id,
                            [&] { (void)index.search_at(request, id); });
    replay_engine_core(index.engine(), request.query, request.k, id, top,
                       trace);
  });
}

}  // namespace perfbench
