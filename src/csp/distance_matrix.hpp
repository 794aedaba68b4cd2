// Distance Matrix (DM) construction — Sec. III-B, Fig. 4(a).
//
// The DM is the functional specification handed to the CSP encoder:
// rows are search (query) values, columns are stored values, and entry
// (sch, sto) is the target distance the cell's summed current must
// represent, in integer multiples of the unit current I0.
#pragma once

#include <cstdint>
#include <string>

#include "util/matrix.hpp"

namespace ferex::csp {

/// Distance functions FeReX supports (Table I: HD / L1 / L2).
enum class DistanceMetric : std::uint8_t {
  kHamming,           ///< bitwise Hamming distance popcount(a ^ b)
  kManhattan,         ///< L1: |a - b|
  kEuclideanSquared,  ///< L2 squared: (a - b)^2  (integer-valued)
};

/// Human-readable metric name ("Hamming", "Manhattan", "Euclidean").
std::string to_string(DistanceMetric metric);

/// Software reference distance between two b-bit values under a metric.
int reference_distance(DistanceMetric metric, int a, int b);

/// The target distance matrix for one AM cell.
class DistanceMatrix {
 public:
  /// Builds the 2^bits x 2^bits DM for a metric. bits in [1, 8]; throws
  /// std::invalid_argument outside it or on a value no DistanceMetric
  /// names.
  static DistanceMatrix make(DistanceMetric metric, int bits);

  /// Wraps an arbitrary user matrix (rows = search, cols = stored).
  /// All entries must be non-negative.
  static DistanceMatrix custom(util::Matrix<int> values, std::string name);

  std::size_t search_count() const noexcept { return values_.rows(); }
  std::size_t stored_count() const noexcept { return values_.cols(); }

  /// Target distance for search row `sch` against stored column `sto`.
  int at(std::size_t sch, std::size_t sto) const { return values_.at(sch, sto); }

  /// Largest entry (defines the current range the cell must span).
  int max_value() const noexcept { return max_value_; }

  const std::string& name() const noexcept { return name_; }
  const util::Matrix<int>& values() const noexcept { return values_; }

 private:
  DistanceMatrix(util::Matrix<int> values, std::string name);

  util::Matrix<int> values_;
  std::string name_;
  int max_value_ = 0;
};

}  // namespace ferex::csp
