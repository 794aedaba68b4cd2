// The result types every layer shares: one scored row (Hit) and one
// write receipt (WriteReceipt). A single macro reports bank 0 and its own
// row; the banked array and the serving fleet report global rows with
// `bank` set to the bank or shard holding the row.
#pragma once

#include <cstddef>

#include "circuit/write.hpp"

namespace ferex::core {

/// One scored row of a search, nearest first in every hit list.
struct Hit {
  std::size_t global_row = 0;     ///< row index across all banks
  std::size_t bank = 0;           ///< bank (or shard) holding the row
  double sensed_current_a = 0.0;  ///< sensed current (distance domain)
  double margin_a = 0.0;          ///< sensed gap to the best remaining row
  int nominal_distance = 0;       ///< encoding-level distance to the query
};

/// Receipt for one write-path operation (insert / remove / update).
struct WriteReceipt {
  std::size_t global_row = 0;  ///< the row written (or erased)
  std::size_t bank = 0;        ///< bank (or shard) holding it
  circuit::WriteCost cost{};   ///< write cost of the operation
};

}  // namespace ferex::core
