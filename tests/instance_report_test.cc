#include <gtest/gtest.h>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "instances/tpcc.h"
#include "report/instance_report.h"
#include "solver/latency.h"

namespace vpart {
namespace {

TEST(InstanceStatsTest, TpccNumbers) {
  Instance tpcc = MakeTpccInstance();
  InstanceStats stats = ComputeInstanceStats(tpcc);
  EXPECT_EQ(stats.tables, 9);
  EXPECT_EQ(stats.attributes, 92);
  EXPECT_EQ(stats.transactions, 5);
  EXPECT_EQ(stats.read_queries + stats.write_queries, stats.queries);
  EXPECT_GT(stats.write_queries, 0);
  EXPECT_GT(stats.read_queries, stats.write_queries);  // OLTP but read-rich
  // Customer is the widest TPC-C table by a margin (C_DATA).
  EXPECT_EQ(tpcc.schema().table(stats.widest_table).name, "Customer");
  EXPECT_GT(stats.total_weight, 0);
  EXPECT_GT(stats.write_weight, 0);
  EXPECT_LT(stats.write_weight, stats.total_weight);
  EXPECT_GT(stats.referenced_attributes, 60);
  EXPECT_LE(stats.referenced_attributes, 92);
  EXPECT_GT(stats.min_width, 0);
  EXPECT_GE(stats.max_width, 500);  // C_DATA
}

TEST(InstanceStatsTest, SummaryRenders) {
  Instance tpcc = MakeTpccInstance();
  const std::string out = RenderInstanceSummary(tpcc);
  EXPECT_NE(out.find("tpcc-v5"), std::string::npos);
  EXPECT_NE(out.find("9 tables, 92 attributes"), std::string::npos);
  EXPECT_NE(out.find("widest table: Customer"), std::string::npos);
  EXPECT_NE(out.find("workload weight"), std::string::npos);
}

TEST(AdvisorLatencyTest, LatencyPenaltyIsReportedAndReduced) {
  // Small instance solved via the ILP path with and without the latency
  // extension: the latency-aware solve must not be more latency-exposed.
  Instance tpcc = MakeTpccInstance();
  AdviseRequest plain;
  plain.num_sites = 2;
  plain.solver = kSolverIlp;
  plain.time_limit_seconds = 20;
  auto base_response = Advise(tpcc, plain);
  ASSERT_TRUE(base_response.ok()) << base_response.status();
  const AdvisorResult& base = base_response->result;
  EXPECT_DOUBLE_EQ(base.latency_cost, 0.0);  // not requested

  AdviseRequest with_latency = plain;
  // A large penalty (about 10% of total cost per hot query) forces the
  // solver to trade some replication for latency.
  with_latency.latency_penalty = 2000.0;
  auto aware_response = Advise(tpcc, with_latency);
  ASSERT_TRUE(aware_response.ok()) << aware_response.status();
  const AdvisorResult& aware = aware_response->result;
  const double base_exposure =
      LatencyCost(tpcc, base.partitioning, with_latency.latency_penalty);
  EXPECT_LE(aware.latency_cost, base_exposure + 1e-9);
  // Total (cost + latency) of the aware solve must not exceed the base
  // solve's total: the base layout stays in the feasible set.
  EXPECT_LE(aware.cost + aware.latency_cost,
            base.cost + base_exposure + 1e-6 * (1 + base.cost));
}

}  // namespace
}  // namespace vpart
