#include "ml/mann.hpp"

#include <map>
#include <stdexcept>

#include "ml/quantize.hpp"

namespace ferex::ml {

Episode make_episode(const EpisodeSpec& spec, util::Rng& rng) {
  if (spec.ways == 0 || spec.shots == 0 || spec.feature_count == 0) {
    throw std::invalid_argument("make_episode: degenerate spec");
  }
  // Fresh class prototypes for this episode ("novel classes").
  util::Matrix<double> prototypes(spec.ways, spec.feature_count);
  for (double& v : prototypes.flat()) {
    v = rng.gaussian(0.0, spec.class_separation);
  }
  const auto sample_around = [&](std::size_t c, std::span<double> out) {
    for (std::size_t f = 0; f < spec.feature_count; ++f) {
      out[f] = prototypes.at(c, f) + rng.gaussian();
    }
  };

  Episode ep;
  const std::size_t support_n = spec.ways * spec.shots;
  const std::size_t query_n = spec.ways * spec.queries_per_class;
  ep.support_x = util::Matrix<double>(support_n, spec.feature_count);
  ep.support_y.resize(support_n);
  ep.query_x = util::Matrix<double>(query_n, spec.feature_count);
  ep.query_y.resize(query_n);
  std::size_t s = 0;
  for (std::size_t c = 0; c < spec.ways; ++c) {
    for (std::size_t shot = 0; shot < spec.shots; ++shot, ++s) {
      sample_around(c, ep.support_x.row(s));
      ep.support_y[s] = static_cast<int>(c);
    }
  }
  std::size_t q = 0;
  for (std::size_t c = 0; c < spec.ways; ++c) {
    for (std::size_t i = 0; i < spec.queries_per_class; ++i, ++q) {
      sample_around(c, ep.query_x.row(q));
      ep.query_y[q] = static_cast<int>(c);
    }
  }
  return ep;
}

FewShotResult evaluate_few_shot(core::FerexEngine& engine,
                                const EpisodeSpec& spec,
                                std::size_t episodes, std::uint64_t seed) {
  if (!engine.configured()) {
    throw std::logic_error("evaluate_few_shot: engine not configured");
  }
  util::Rng rng(seed);
  FewShotResult result;
  result.episodes = episodes;
  std::size_t hits = 0;
  // The call's n-th search runs at ordinal n: its comparator-noise
  // stream depends on its place in the call, not on engine history.
  std::uint64_t ordinal = 0;
  for (std::size_t e = 0; e < episodes; ++e) {
    const auto ep = make_episode(spec, rng);
    const auto quantizer = Quantizer::fit(ep.support_x, engine.bits());
    const auto support_q = quantizer.quantize(ep.support_x);
    std::vector<std::vector<int>> database;
    for (std::size_t r = 0; r < support_q.rows(); ++r) {
      const auto row = support_q.row(r);
      database.emplace_back(row.begin(), row.end());
    }
    engine.store(database);  // episodic memory replace

    for (std::size_t q = 0; q < ep.query_x.rows(); ++q) {
      const auto query = quantizer.quantize(ep.query_x.row(q));
      // Vote over the k = shots nearest supports (1-shot: the nearest).
      const auto neighbors =
          engine.search_hits_at(query, spec.shots, ordinal++);
      int predicted = ep.support_y[neighbors.front().global_row];
      if (spec.shots > 1) {
        std::map<int, std::size_t> votes;
        for (const auto& hit : neighbors) ++votes[ep.support_y[hit.global_row]];
        std::size_t best = 0;
        for (const auto& [label, count] : votes) {
          if (count > best) {
            best = count;
            predicted = label;
          }
        }
      }
      ++result.queries;
      if (predicted == ep.query_y[q]) ++hits;
    }
  }
  result.accuracy = result.queries > 0
                        ? static_cast<double>(hits) /
                              static_cast<double>(result.queries)
                        : 0.0;
  return result;
}

}  // namespace ferex::ml
