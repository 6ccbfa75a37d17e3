// Micro-benchmarks (google-benchmark) for the building blocks: cost-model
// evaluation, closed-form placement, SA iterations, LP solves, instance
// generation and the §4 grouping reduction.

#include <benchmark/benchmark.h>

#include "cost/cost_model.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "lp/simplex.h"
#include "solver/attribute_groups.h"
#include "solver/formulation.h"
#include "solver/sa_solver.h"
#include "util/rng.h"

namespace vpart {
namespace {

Instance& Tpcc() {
  static Instance* instance = new Instance(MakeTpccInstance());
  return *instance;
}

Instance& BigRandom() {
  static Instance* instance = [] {
    RandomInstanceParams params;
    params.num_transactions = 100;
    params.num_tables = 32;
    params.max_attributes_per_table = 30;
    params.seed = 7;
    return new Instance(MakeRandomInstance(params));
  }();
  return *instance;
}

Partitioning RandomPartitioning(const Instance& instance, int sites,
                                uint64_t seed) {
  Rng rng(seed);
  Partitioning p(instance.num_transactions(), instance.num_attributes(),
                 sites);
  for (int t = 0; t < instance.num_transactions(); ++t) {
    p.AssignTransaction(t, static_cast<int>(rng.NextBounded(sites)));
  }
  CostModel model(&instance, {});
  ComputeOptimalY(model, p);
  return p;
}

void BM_CostModelBuild(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  for (auto _ : state) {
    CostModel model(&instance, {.p = 8, .lambda = 0.1});
    benchmark::DoNotOptimize(model.c2(0));
  }
}
BENCHMARK(BM_CostModelBuild)->Arg(0)->Arg(1);

void BM_ObjectiveEvaluation(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Objective(p));
  }
}
BENCHMARK(BM_ObjectiveEvaluation)->Arg(0)->Arg(1);

void BM_ScalarizedObjective(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ScalarizedObjective(p));
  }
}
BENCHMARK(BM_ScalarizedObjective)->Arg(0)->Arg(1);

void BM_ComputeOptimalY(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  Partitioning p = RandomPartitioning(instance, 3, 42);
  for (auto _ : state) {
    ComputeOptimalY(model, p);
    benchmark::DoNotOptimize(p.ReplicaCount(0));
  }
}
BENCHMARK(BM_ComputeOptimalY)->Arg(0)->Arg(1);

void BM_SaAnnealTpcc(benchmark::State& state) {
  const Instance& instance = Tpcc();
  CostModel model(&instance, {.p = 8, .lambda = 0.1});
  for (auto _ : state) {
    SaOptions options;
    options.seed = 11;
    options.inner_iterations = 10;
    options.stale_rounds_limit = 2;
    benchmark::DoNotOptimize(SolveWithSa(model, 3, options).cost);
  }
}
BENCHMARK(BM_SaAnnealTpcc)->Unit(benchmark::kMillisecond);

void BM_SimplexTpccRootLp(benchmark::State& state) {
  Instance& instance = Tpcc();
  auto grouping = BuildAttributeGrouping(instance);
  CostModel model(&grouping->reduced, {.p = 8, .lambda = 0.1});
  FormulationOptions options;
  options.num_sites = 3;
  IlpFormulation f = BuildIlpFormulation(model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLp(f.model).objective);
  }
}
BENCHMARK(BM_SimplexTpccRootLp)->Unit(benchmark::kMillisecond);

void BM_InstanceGeneration(benchmark::State& state) {
  RandomInstanceParams params;
  params.num_transactions = static_cast<int>(state.range(0));
  params.num_tables = static_cast<int>(state.range(0));
  params.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeRandomInstance(params).num_attributes());
  }
}
BENCHMARK(BM_InstanceGeneration)->Arg(20)->Arg(100);

void BM_AttributeGrouping(benchmark::State& state) {
  const Instance& instance = state.range(0) == 0 ? Tpcc() : BigRandom();
  for (auto _ : state) {
    auto grouping = BuildAttributeGrouping(instance);
    benchmark::DoNotOptimize(grouping->num_groups());
  }
}
BENCHMARK(BM_AttributeGrouping)->Arg(0)->Arg(1);

}  // namespace
}  // namespace vpart

BENCHMARK_MAIN();
