// Differential test of the packed-row cost kernel: every evaluation that
// runs over CostCoefficients' packed rows must be bit-identical to the
// branchy per-entry loops it replaced, which are kept below as the
// reference. Doubles are compared with EXPECT_EQ (not DOUBLE_EQ) and
// partitionings with ==, on an instance with fractional widths so that
// the summation order shows in the last bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "cost/cost_model_registry.h"
#include "cost/latency_decorator.h"
#include "instances/random_instance.h"
#include "solver/sa_solver.h"
#include "util/rng.h"

namespace vpart {
namespace {

// --- reference loops: "if y[a][s] then acc += c", in the kernel's order ---

double RefObjective(const CostCoefficients& m, const Partitioning& p) {
  const Instance& instance = m.instance();
  double objective = 0.0;
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      if (p.HasAttribute(a, s)) objective += m.c1(a, t);
    }
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    if (m.c2(a) != 0.0) objective += m.c2(a) * p.ReplicaCount(a);
  }
  return objective;
}

double RefSiteLoad(const CostCoefficients& m, const Partitioning& p, int s) {
  const Instance& instance = m.instance();
  double load = 0.0;
  for (int t = 0; t < instance.num_transactions(); ++t) {
    if (p.SiteOfTransaction(t) != s) continue;
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      if (p.HasAttribute(a, s)) load += m.c3(a, t);
    }
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    if (m.c4(a) != 0.0 && p.HasAttribute(a, s)) load += m.c4(a);
  }
  return load;
}

double RefMaxLoad(const CostCoefficients& m, const Partitioning& p) {
  double max_load = 0.0;
  for (int s = 0; s < p.num_sites(); ++s) {
    max_load = std::max(max_load, RefSiteLoad(m, p, s));
  }
  return max_load;
}

double RefTransactionOnSiteCost(const CostCoefficients& m,
                                const Partitioning& p, int t, int s) {
  double cost = 0.0;
  for (int a : m.instance().TouchedAttributesOfTransaction(t)) {
    if (p.HasAttribute(a, s)) cost += m.c1(a, t);
  }
  return cost;
}

bool RefComputeOptimalY(const CostCoefficients& m, Partitioning& p,
                        bool allow_replication) {
  const Instance& instance = m.instance();
  const int num_a = instance.num_attributes();
  const int num_s = p.num_sites();
  std::vector<double> kappa(static_cast<size_t>(num_a) * num_s);
  for (int a = 0; a < num_a; ++a) {
    for (int s = 0; s < num_s; ++s) kappa[a * num_s + s] = m.c2(a);
  }
  std::vector<uint8_t> forced(static_cast<size_t>(num_a) * num_s, 0);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const int s = p.SiteOfTransaction(t);
    for (int a : instance.TouchedAttributesOfTransaction(t)) {
      kappa[a * num_s + s] += m.c1(a, t);
    }
    for (int a : instance.ReadSetOfTransaction(t)) forced[a * num_s + s] = 1;
  }
  for (int a = 0; a < num_a; ++a) {
    p.ClearAttribute(a);
    int placed = 0;
    int forced_count = 0;
    for (int s = 0; s < num_s; ++s) {
      if (forced[a * num_s + s]) {
        p.PlaceAttribute(a, s);
        ++placed;
        ++forced_count;
      }
    }
    if (!allow_replication) {
      if (forced_count > 1) return false;
      if (forced_count == 0) {
        int best_s = 0;
        for (int s = 1; s < num_s; ++s) {
          if (kappa[a * num_s + s] < kappa[a * num_s + best_s]) best_s = s;
        }
        p.PlaceAttribute(a, best_s);
      }
      continue;
    }
    for (int s = 0; s < num_s; ++s) {
      if (!forced[a * num_s + s] && kappa[a * num_s + s] < 0.0) {
        p.PlaceAttribute(a, s);
        ++placed;
      }
    }
    if (placed == 0) {
      int best_s = 0;
      for (int s = 1; s < num_s; ++s) {
        if (kappa[a * num_s + s] < kappa[a * num_s + best_s]) best_s = s;
      }
      p.PlaceAttribute(a, best_s);
    }
  }
  return true;
}

bool RefComputeOptimalX(const CostCoefficients& m, Partitioning& p,
                        bool allow_replication) {
  const Instance& instance = m.instance();
  const int num_s = p.num_sites();
  for (int t = 0; t < instance.num_transactions(); ++t) {
    const std::vector<int>& reads = instance.ReadSetOfTransaction(t);
    int best_site = -1;
    double best_cost = 0.0;
    for (int s = 0; s < num_s; ++s) {
      bool covered = true;
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      const double cost = RefTransactionOnSiteCost(m, p, t, s);
      if (best_site < 0 || cost < best_cost) {
        best_site = s;
        best_cost = cost;
      }
    }
    if (best_site >= 0) {
      p.AssignTransaction(t, best_site);
      continue;
    }
    if (!allow_replication) return false;
    int repair_site = 0;
    double repair_cost = 1e300;
    for (int s = 0; s < num_s; ++s) {
      double cost = RefTransactionOnSiteCost(m, p, t, s);
      for (int a : reads) {
        if (!p.HasAttribute(a, s)) cost += m.c2(a);
      }
      if (cost < repair_cost) {
        repair_cost = cost;
        repair_site = s;
      }
    }
    for (int a : reads) {
      if (!p.HasAttribute(a, repair_site)) p.PlaceAttribute(a, repair_site);
    }
    p.AssignTransaction(t, repair_site);
  }
  return true;
}

// --- fixtures ---------------------------------------------------------------

Instance FractionalWidthInstance(uint64_t seed) {
  RandomInstanceParams params;
  params.num_transactions = 24;
  params.num_tables = 8;
  params.update_percent = 40;
  params.allowed_widths = {1.1, 2.3, 4.7, 9.9};
  params.seed = seed;
  return MakeRandomInstance(params);
}

/// Random x, and a random replicated y: every attribute on one random site,
/// plus extra replicas with probability `extra`. Single-sitedness is not
/// enforced, so ComputeOptimalX's repair path is exercised too.
Partitioning RandomPartitioning(const Instance& instance, int sites, Rng& rng,
                                double extra) {
  Partitioning p(instance.num_transactions(), instance.num_attributes(),
                 sites);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
  }
  for (int a = 0; a < instance.num_attributes(); ++a) {
    p.PlaceAttribute(a, static_cast<int>(rng.NextBounded(sites)));
    for (int s = 0; s < sites; ++s) {
      if (rng.NextBool(extra)) p.PlaceAttribute(a, s);
    }
  }
  return p;
}

struct Backend {
  const char* name;
  std::shared_ptr<const CostCoefficients> model;
  /// The undecorated model whose coefficients the reference loops read;
  /// equal to `model` except for the latency decorator.
  std::shared_ptr<const CostCoefficients> base;
};

std::vector<Backend> Backends(const Instance& instance) {
  const CostParams params{.p = 8.0, .lambda = 0.1};
  std::vector<Backend> backends;
  auto paper = std::make_shared<CostModel>(BorrowInstance(instance), params);
  backends.push_back({"paper", paper, paper});
  CostModelSpec spec;
  spec.backend = kCostModelCacheline;
  auto cacheline = CostModelRegistry::Global().Build(
      BorrowInstance(instance), params, spec);
  EXPECT_TRUE(cacheline.ok()) << cacheline.status();
  backends.push_back({"cacheline", *cacheline, *cacheline});
  backends.push_back(
      {"paper+latency", std::make_shared<LatencyDecoratedCost>(paper, 3.5),
       paper});
  return backends;
}

TEST(CostKernelTest, EvaluationsMatchTheBranchyLoopsBitForBit) {
  for (uint64_t seed : {3, 17}) {
    const Instance instance = FractionalWidthInstance(seed);
    for (const Backend& backend : Backends(instance)) {
      const CostCoefficients& model = *backend.model;
      const CostCoefficients& base = *backend.base;
      const auto* decorated =
          dynamic_cast<const LatencyDecoratedCost*>(&model);
      Rng rng(seed * 31 + 7);
      for (int sites = 1; sites <= 5; ++sites) {
        for (int trial = 0; trial < 8; ++trial) {
          const Partitioning p =
              RandomPartitioning(instance, sites, rng, 0.1 * (trial % 4));
          SCOPED_TRACE(testing::Message()
                       << backend.name << " seed " << seed << " sites "
                       << sites << " trial " << trial);
          // The decorator adds its latency term after the base evaluation.
          const double extra =
              decorated != nullptr ? decorated->LatencyTerm(p) : 0.0;
          const double objective = RefObjective(base, p);
          const double max_load = RefMaxLoad(base, p);
          EXPECT_EQ(model.Objective(p), objective + extra);
          EXPECT_EQ(model.MaxLoad(p), max_load);
          EXPECT_EQ(model.ScalarizedObjective(p),
                    (1.0 - 0.1) * objective + 0.1 * max_load + extra);
          for (int s = 0; s < sites; ++s) {
            EXPECT_EQ(model.SiteLoad(p, s), RefSiteLoad(base, p, s));
            for (int t = 0; t < instance.num_transactions(); ++t) {
              EXPECT_EQ(model.TransactionOnSiteCost(p, t, s),
                        RefTransactionOnSiteCost(base, p, t, s));
            }
          }
        }
      }
    }
  }
}

TEST(CostKernelTest, FindSolutionStepsMatchTheBranchyLoops) {
  for (uint64_t seed : {3, 17}) {
    const Instance instance = FractionalWidthInstance(seed);
    for (const Backend& backend : Backends(instance)) {
      const CostCoefficients& model = *backend.model;
      Rng rng(seed * 57 + 1);
      for (int sites = 1; sites <= 5; ++sites) {
        for (int trial = 0; trial < 8; ++trial) {
          const Partitioning start =
              RandomPartitioning(instance, sites, rng, 0.1 * (trial % 4));
          for (bool replicate : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << backend.name << " seed " << seed << " sites "
                         << sites << " trial " << trial << " replicate "
                         << replicate);
            Partitioning y_ref = start;
            Partitioning y_new = start;
            EXPECT_EQ(ComputeOptimalY(model, y_new, replicate),
                      RefComputeOptimalY(model, y_ref, replicate));
            EXPECT_TRUE(y_new == y_ref);

            Partitioning x_ref = start;
            Partitioning x_new = start;
            EXPECT_EQ(ComputeOptimalX(model, x_new, replicate),
                      RefComputeOptimalX(model, x_ref, replicate));
            EXPECT_TRUE(x_new == x_ref);
          }
        }
      }
    }
  }
}

// The packed rows hold exactly the dense tables' nonzero support.
TEST(CostKernelTest, PackedRowsMirrorTheDenseTables) {
  const Instance instance = FractionalWidthInstance(5);
  for (const Backend& backend : Backends(instance)) {
    const CostCoefficients& model = *backend.model;
    for (int t = 0; t < instance.num_transactions(); ++t) {
      const std::vector<int>& touched =
          instance.TouchedAttributesOfTransaction(t);
      const CostCoefficients::TransactionRow row = model.row(t);
      ASSERT_EQ(row.size, static_cast<int>(touched.size()));
      for (int k = 0; k < row.size; ++k) {
        EXPECT_EQ(row.attribute[k], touched[k]);
        EXPECT_EQ(row.c1[k], model.c1(touched[k], t));
        EXPECT_EQ(row.c3[k], model.c3(touched[k], t));
      }
    }
  }
}

}  // namespace
}  // namespace vpart
