#include "csp/distance_matrix.hpp"

#include <bit>
#include <cstdlib>
#include <stdexcept>

namespace ferex::csp {

std::string to_string(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kHamming:
      return "Hamming";
    case DistanceMetric::kManhattan:
      return "Manhattan";
    case DistanceMetric::kEuclideanSquared:
      return "Euclidean";
  }
  return "Unknown";
}

int reference_distance(DistanceMetric metric, int a, int b) {
  switch (metric) {
    case DistanceMetric::kHamming:
      return std::popcount(static_cast<unsigned>(a) ^
                           static_cast<unsigned>(b));
    case DistanceMetric::kManhattan:
      return std::abs(a - b);
    case DistanceMetric::kEuclideanSquared:
      return (a - b) * (a - b);
  }
  return 0;
}

DistanceMatrix DistanceMatrix::make(DistanceMetric metric, int bits) {
  if (bits < 1 || bits > 8) {
    throw std::invalid_argument("DistanceMatrix: bits must be in [1, 8]");
  }
  if (metric != DistanceMetric::kHamming &&
      metric != DistanceMetric::kManhattan &&
      metric != DistanceMetric::kEuclideanSquared) {
    throw std::invalid_argument("DistanceMatrix: unknown metric");
  }
  const std::size_t n = std::size_t{1} << bits;
  util::Matrix<int> m(n, n, 0);
  for (std::size_t sch = 0; sch < n; ++sch) {
    for (std::size_t sto = 0; sto < n; ++sto) {
      m.at(sch, sto) = reference_distance(metric, static_cast<int>(sch),
                                          static_cast<int>(sto));
    }
  }
  return DistanceMatrix{std::move(m), std::to_string(bits) + "-bit " +
                                          to_string(metric)};
}

DistanceMatrix DistanceMatrix::custom(util::Matrix<int> values,
                                      std::string name) {
  if (values.rows() == 0 || values.cols() == 0) {
    throw std::invalid_argument("DistanceMatrix: empty custom matrix");
  }
  for (int v : values.flat()) {
    if (v < 0) throw std::invalid_argument("DistanceMatrix: negative entry");
  }
  return DistanceMatrix{std::move(values), std::move(name)};
}

DistanceMatrix::DistanceMatrix(util::Matrix<int> values, std::string name)
    : values_(std::move(values)), name_(std::move(name)) {
  for (int v : values_.flat()) max_value_ = std::max(max_value_, v);
}

}  // namespace ferex::csp
