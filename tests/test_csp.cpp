// Unit tests for the CSP substrate: distance matrices, DM decomposition
// (constraint 1), row-pattern enumeration (constraint 2), pairwise
// compatibility (constraint 3), the generic AC-3/backtracking engine and
// Algorithm 1 end to end.
#include <gtest/gtest.h>

#include <algorithm>

#include "csp/binary_csp.hpp"
#include "csp/decompose.hpp"
#include "csp/distance_matrix.hpp"
#include "csp/feasibility.hpp"
#include "csp/row_pattern.hpp"

namespace ferex::csp {
namespace {

// ---------------------------------------------------------------- DM ---

TEST(DistanceMatrixT, TwoBitHammingMatchesFig4a) {
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 2);
  ASSERT_EQ(dm.search_count(), 4u);
  ASSERT_EQ(dm.stored_count(), 4u);
  // Fig. 4(a): distance between search '00' and store '11' is 2.
  EXPECT_EQ(dm.at(0b00, 0b11), 2);
  EXPECT_EQ(dm.at(0b01, 0b10), 2);
  EXPECT_EQ(dm.at(0b01, 0b00), 1);
  for (std::size_t v = 0; v < 4; ++v) EXPECT_EQ(dm.at(v, v), 0);
  EXPECT_EQ(dm.max_value(), 2);
}

TEST(DistanceMatrixT, ManhattanAndEuclidean) {
  const auto l1 = DistanceMatrix::make(DistanceMetric::kManhattan, 2);
  EXPECT_EQ(l1.at(0, 3), 3);
  EXPECT_EQ(l1.at(2, 1), 1);
  EXPECT_EQ(l1.max_value(), 3);
  const auto l2 = DistanceMatrix::make(DistanceMetric::kEuclideanSquared, 2);
  EXPECT_EQ(l2.at(0, 3), 9);
  EXPECT_EQ(l2.at(1, 3), 4);
  EXPECT_EQ(l2.max_value(), 9);
}

TEST(DistanceMatrixT, SymmetricForStandardMetrics) {
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    const auto dm = DistanceMatrix::make(metric, 3);
    for (std::size_t a = 0; a < dm.search_count(); ++a) {
      for (std::size_t b = 0; b < dm.stored_count(); ++b) {
        EXPECT_EQ(dm.at(a, b), dm.at(b, a));
      }
    }
  }
}

TEST(DistanceMatrixT, RejectsBadArguments) {
  EXPECT_THROW(DistanceMatrix::make(DistanceMetric::kHamming, 0),
               std::invalid_argument);
  EXPECT_THROW(DistanceMatrix::make(DistanceMetric::kHamming, 9),
               std::invalid_argument);
  // A value no DistanceMetric names would build an all-zero matrix.
  EXPECT_THROW(DistanceMatrix::make(static_cast<DistanceMetric>(3), 2),
               std::invalid_argument);
  util::Matrix<int> bad(2, 2, 0);
  bad.at(0, 1) = -1;
  EXPECT_THROW(DistanceMatrix::custom(std::move(bad), "bad"),
               std::invalid_argument);
}

TEST(DistanceMatrixT, CustomMatrixAccepted) {
  util::Matrix<int> values(2, 3, 1);
  const auto dm = DistanceMatrix::custom(std::move(values), "custom");
  EXPECT_EQ(dm.search_count(), 2u);
  EXPECT_EQ(dm.stored_count(), 3u);
  EXPECT_EQ(dm.name(), "custom");
}

// ------------------------------------------------------- decompose ---

TEST(Decompose, EnumeratesFig4cExample) {
  // DM element '2' over 3 FeFETs with currents {1, 2}: six decompositions.
  const std::vector<int> cr{1, 2};
  const auto decs = decompose_value(3, 2, cr);
  EXPECT_EQ(decs.size(), 6u);
  for (const auto& d : decs) {
    int sum = 0;
    for (int c : d) sum += c;
    EXPECT_EQ(sum, 2);
  }
  EXPECT_NE(std::find(decs.begin(), decs.end(), CellCurrents({2, 0, 0})),
            decs.end());
  EXPECT_NE(std::find(decs.begin(), decs.end(), CellCurrents({1, 1, 0})),
            decs.end());
}

TEST(Decompose, ZeroValueHasSingleAllOffDecomposition) {
  const std::vector<int> cr{1, 2};
  const auto decs = decompose_value(3, 0, cr);
  ASSERT_EQ(decs.size(), 1u);
  EXPECT_EQ(decs.front(), CellCurrents({0, 0, 0}));
}

TEST(Decompose, InfeasibleValueYieldsEmpty) {
  const std::vector<int> cr{1};
  EXPECT_TRUE(decompose_value(2, 5, cr).empty());  // max reachable is 2
}

TEST(Decompose, CountMatchesEnumeration) {
  const std::vector<int> cr{1, 2, 3};
  for (int k = 1; k <= 4; ++k) {
    for (int v = 0; v <= 6; ++v) {
      EXPECT_EQ(count_decompositions(k, v, cr),
                decompose_value(k, v, cr).size())
          << "k=" << k << " v=" << v;
    }
  }
}

TEST(Decompose, RejectsBadArguments) {
  const std::vector<int> cr{1};
  EXPECT_THROW(decompose_value(0, 1, cr), std::invalid_argument);
  EXPECT_THROW(decompose_value(2, -1, cr), std::invalid_argument);
  const std::vector<int> bad{0};
  EXPECT_THROW(decompose_value(2, 1, bad), std::invalid_argument);
}

// ------------------------------------------------------ row pattern ---

TEST(RowPatternT, Constraint2AcceptsUniformOnCurrents) {
  RowPattern row;
  row.currents = {{1, 0}, {1, 2}, {0, 2}};
  EXPECT_TRUE(satisfies_constraint2(row));
  EXPECT_EQ(row.on_current(0), 1);
  EXPECT_EQ(row.on_current(1), 2);
}

TEST(RowPatternT, Constraint2RejectsMixedOnCurrents) {
  RowPattern row;
  row.currents = {{1, 0}, {2, 0}};  // FeFET 0 conducts 1 then 2: invalid
  EXPECT_FALSE(satisfies_constraint2(row));
}

TEST(RowPatternT, EnumerationRespectsConstraint2) {
  // Row of the 2-bit Hamming DM for search '00': targets 0,1,1,2.
  const std::vector<int> targets{0, 1, 1, 2};
  const std::vector<int> cr{1, 2};
  const auto patterns = enumerate_row_patterns(targets, 3, cr);
  ASSERT_FALSE(patterns.empty());
  for (const auto& p : patterns) {
    EXPECT_TRUE(satisfies_constraint2(p));
    for (std::size_t sto = 0; sto < targets.size(); ++sto) {
      int sum = 0;
      for (int c : p.currents[sto]) sum += c;
      EXPECT_EQ(sum, targets[sto]);
    }
  }
}

TEST(RowPatternT, EnumerationEmptyWhenImpossible) {
  const std::vector<int> targets{5};
  const std::vector<int> cr{1};
  EXPECT_TRUE(enumerate_row_patterns(targets, 2, cr).empty());
}

TEST(RowPatternT, CompatibilityDetectsFig4eConflict) {
  // Fig. 4(e): FeFET 2 is ON for Store00 / OFF for Store01 under Search11,
  // but OFF for Store00 / ON for Store01 under Search00 -> conflict.
  RowPattern search11, search00;
  search11.currents = {{0, 0, 1}, {0, 0, 0}};  // sto0: FET3 ON; sto1: OFF
  search00.currents = {{0, 0, 0}, {0, 0, 1}};  // sto0: OFF; sto1: FET3 ON
  EXPECT_FALSE(rows_compatible(search11, search00));
}

TEST(RowPatternT, CompatibilityAcceptsNestedOnSets) {
  RowPattern a, b;
  a.currents = {{1, 0}, {1, 0}, {0, 0}};  // FET0 ON-set {0,1}
  b.currents = {{2, 0}, {0, 0}, {0, 0}};  // FET0 ON-set {0} (subset) -> ok
  EXPECT_TRUE(rows_compatible(a, b));
  EXPECT_TRUE(rows_compatible(b, a));
}

// -------------------------------------------------------- BinaryCsp ---

TEST(BinaryCspT, SolvesTriangleColoring) {
  // 3 mutually adjacent nodes, 3 colors: solvable.
  BinaryCsp csp({3, 3, 3}, [](std::size_t, std::size_t va, std::size_t,
                              std::size_t vb) { return va != vb; });
  EXPECT_TRUE(csp.ac3());
  const auto sol = csp.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NE((*sol)[0], (*sol)[1]);
  EXPECT_NE((*sol)[1], (*sol)[2]);
  EXPECT_NE((*sol)[0], (*sol)[2]);
}

TEST(BinaryCspT, DetectsInfeasibleTriangleWithTwoColors) {
  BinaryCsp csp({2, 2, 2}, [](std::size_t, std::size_t va, std::size_t,
                              std::size_t vb) { return va != vb; });
  // AC-3 alone cannot wipe the domains here (every value has a support),
  // but the search must fail.
  csp.ac3();
  EXPECT_FALSE(csp.solve().has_value());
}

TEST(BinaryCspT, Ac3PrunesUnsupportedValues) {
  // Variable 0 in {0,1,2}; variable 1 in {2} only; constraint: equal.
  BinaryCsp csp({3, 1}, [](std::size_t a, std::size_t va, std::size_t,
                           std::size_t vb) {
    // Domain of var 1 has a single value index 0 meaning "2"; the
    // constraint requires var 0 to equal that value.
    return a == 0 ? va == 2 : vb == 2;
  });
  EXPECT_TRUE(csp.ac3());
  EXPECT_EQ(csp.domain(0).size(), 1u);
  EXPECT_EQ(csp.domain(0).front(), 2u);
  EXPECT_GT(csp.stats().ac3_removals, 0u);
}

TEST(BinaryCspT, SolveAllEnumeratesAndRespectsLimit) {
  // Two independent binary variables, no constraint: 4 solutions.
  BinaryCsp all({2, 2}, [](std::size_t, std::size_t, std::size_t,
                           std::size_t) { return true; });
  EXPECT_EQ(all.solve_all(0).size(), 4u);
  BinaryCsp limited({2, 2}, [](std::size_t, std::size_t, std::size_t,
                               std::size_t) { return true; });
  EXPECT_EQ(limited.solve_all(3).size(), 3u);
}

// ------------------------------------------------------ Algorithm 1 ---

TEST(Feasibility, TwoBitHammingNeedsThreeFeFets) {
  // The paper's headline CSP result: 2-bit Hamming is infeasible with 1-2
  // FeFETs per cell and feasible with a 3FeFET3R cell (Table II).
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 2);
  const std::vector<int> cr{1, 2};
  EXPECT_FALSE(detect_feasibility(dm, 1, cr).feasible);
  EXPECT_FALSE(detect_feasibility(dm, 2, cr).feasible);
  const auto r3 = detect_feasibility(dm, 3, cr);
  EXPECT_TRUE(r3.feasible);
  ASSERT_FALSE(r3.solutions.empty());
}

TEST(Feasibility, SolutionReproducesTargetMatrix) {
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 2);
  const std::vector<int> cr{1, 2};
  const auto result = detect_feasibility(dm, 3, cr);
  ASSERT_TRUE(result.feasible);
  const auto& sol = result.solution();
  for (std::size_t sch = 0; sch < dm.search_count(); ++sch) {
    for (std::size_t sto = 0; sto < dm.stored_count(); ++sto) {
      int sum = 0;
      for (int c : sol[sch].currents[sto]) sum += c;
      EXPECT_EQ(sum, dm.at(sch, sto));
    }
    EXPECT_TRUE(satisfies_constraint2(sol[sch]));
  }
  for (std::size_t a = 0; a < sol.size(); ++a) {
    for (std::size_t b = a + 1; b < sol.size(); ++b) {
      EXPECT_TRUE(rows_compatible(sol[a], sol[b]));
    }
  }
}

TEST(Feasibility, FeasibleRegionPatternsAllPairwiseSupported) {
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 2);
  const std::vector<int> cr{1, 2};
  const auto result = detect_feasibility(dm, 3, cr);
  ASSERT_TRUE(result.feasible);
  // Arc consistency: every surviving pattern has a support in every other
  // row's surviving domain.
  const auto& region = result.feasible_region;
  for (std::size_t a = 0; a < region.size(); ++a) {
    for (std::size_t b = 0; b < region.size(); ++b) {
      if (a == b) continue;
      for (const auto& pa : region[a]) {
        const bool supported =
            std::any_of(region[b].begin(), region[b].end(),
                        [&](const RowPattern& pb) {
                          return rows_compatible(pa, pb);
                        });
        EXPECT_TRUE(supported);
      }
    }
  }
}

TEST(Feasibility, BacktrackingOnlyAblationAgreesWithAc3) {
  const auto dm = DistanceMatrix::make(DistanceMetric::kManhattan, 1);
  const std::vector<int> cr{1, 2};
  FeasibilityOptions with_ac3, without_ac3;
  without_ac3.use_ac3 = false;
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(detect_feasibility(dm, k, cr, with_ac3).feasible,
              detect_feasibility(dm, k, cr, without_ac3).feasible)
        << "k=" << k;
  }
}

TEST(Feasibility, OneBitMetricsAreEasy) {
  const std::vector<int> cr{1, 2};
  for (auto metric : {DistanceMetric::kHamming, DistanceMetric::kManhattan,
                      DistanceMetric::kEuclideanSquared}) {
    const auto dm = DistanceMatrix::make(metric, 1);
    bool feasible = false;
    for (int k = 1; k <= 2 && !feasible; ++k) {
      feasible = detect_feasibility(dm, k, cr).feasible;
    }
    EXPECT_TRUE(feasible) << to_string(metric);
  }
}

TEST(Feasibility, SolutionLimitZeroEnumeratesAll) {
  const auto dm = DistanceMatrix::make(DistanceMetric::kHamming, 1);
  const std::vector<int> cr{1};
  FeasibilityOptions opt;
  opt.solution_limit = 0;
  const auto result = detect_feasibility(dm, 2, cr, opt);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.solutions.size(), 1u);
}

}  // namespace
}  // namespace ferex::csp
