#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/request_json.h"
#include "api/solver_registry.h"
#include "check/certifier.h"
#include "cost/cost_model_registry.h"
#include "lp/simplex.h"
#include "mip/branch_and_bound.h"
#include "serve/fingerprint.h"
#include "solver/attribute_groups.h"
#include "solver/formulation.h"
#include "solver/sa_solver.h"

namespace vpart::perfbench {
namespace {

/// Runs `fn` inside a span named `name` and returns the span's seconds.
template <typename Fn>
double Leaf(SpanRecorder& spans, int parent, long request, const char* name,
            Fn&& fn) {
  const int id = spans.Open(name, parent, request);
  fn();
  return spans.Close(id);
}

/// The solve-time budget the ilp/sa adapters derive from the request's
/// deadline token (0 = unlimited).
double SolverBudget(const AdviseRequest& request) {
  return request.time_limit_seconds > 0 ? request.time_limit_seconds : 0.0;
}

}  // namespace

LayerSample ReplayRequest(const std::string& key, const std::string& text,
                          long request_index, SpanRecorder& spans) {
  LayerSample s;
  s.key = key;
  const int root = spans.Open("request", -1, request_index);
  auto fail = [&](const std::string& error) {
    s.error = error;
    spans.Close(root);
    return s;
  };

  StatusOr<CliRequest> cli = InvalidArgumentError("unparsed");
  StatusOr<Instance> instance = InvalidArgumentError("unloaded");
  s.parse_s = Leaf(spans, root, request_index, "api.parse", [&] {
    cli = ParseCliRequest(text);
    if (cli.ok()) instance = LoadCliInstance(*cli);
  });
  if (!cli.ok()) return fail(cli.status().ToString());
  if (!instance.ok()) return fail(instance.status().ToString());
  const AdviseRequest& request = cli->request;
  const bool ilp = request.solver == kSolverIlp;
  if (!ilp && request.solver != kSolverSa) {
    return fail("replay covers the ilp and sa solvers only");
  }
  if (request.latency_penalty > 0) {
    return fail("replay does not cover latency_penalty");
  }
  s.fingerprint_s =
      Leaf(spans, root, request_index, "serve.fingerprint",
           [&] { (void)FingerprintInstance(*instance).exact_hash; });

  // --- the layers Advise() runs, in its order ----------------------------
  const int advise = spans.Open("advise", root, request_index);
  CostModelRegistry& registry = CostModelRegistry::Global();
  StatusOr<CostBackendCapabilities> caps =
      registry.Capabilities(request.cost_model.backend);
  if (!caps.ok()) return fail(caps.status().ToString());

  s.attributes = instance->num_attributes();
  s.groups = s.attributes;
  const Instance* solve_instance = &*instance;
  StatusOr<AttributeGrouping> grouping = InvalidArgumentError("unused");
  bool grouped = false;
  if (request.use_attribute_grouping && caps->additive_widths) {
    s.grouping_s = Leaf(spans, advise, request_index, "solver.grouping",
                        [&] { grouping = BuildAttributeGrouping(*instance); });
    if (!grouping.ok()) return fail(grouping.status().ToString());
    s.groups = grouping->num_groups();
    if (grouping->num_groups() < instance->num_attributes()) {
      solve_instance = &grouping->reduced;
      grouped = true;
    }
  }

  StatusOr<std::shared_ptr<const CostCoefficients>> model =
      InvalidArgumentError("unbuilt");
  s.precompute_s = Leaf(spans, advise, request_index, "cost.precompute", [&] {
    model = registry.Build(BorrowInstance(*solve_instance), request.cost,
                           request.cost_model);
  });
  if (!model.ok()) return fail(model.status().ToString());
  const CostCoefficients& cost_model = **model;

  AdviseResponse response;
  std::optional<IlpFormulation> formulation;
  MipOptions mip;
  Partitioning solved;
  if (ilp) {
    // Mirrors the ilp adapter: an SA warm start, then SolveWithIlp's steps
    // (formulation, incumbent encoding, SolveMip) spelled out to time each.
    SaResult warm;
    const double budget = request.ilp.warm_start_seconds;
    s.warm_start_s =
        Leaf(spans, advise, request_index, "solver.ilp_warm_start", [&] {
          if (budget <= 0) return;
          SaOptions warm_sa;
          warm_sa.seed = request.seed;
          warm_sa.allow_replication = request.allow_replication;
          warm_sa.time_limit_seconds =
              request.time_limit_seconds > 0
                  ? std::min(budget, request.time_limit_seconds / 4)
                  : budget;
          warm = SolveWithSa(cost_model, request.num_sites, warm_sa);
        });
    FormulationOptions options;
    options.num_sites = request.num_sites;
    options.allow_replication = request.allow_replication;
    std::vector<double> encoded;
    s.formulation_s =
        Leaf(spans, advise, request_index, "solver.formulation", [&] {
          formulation.emplace(BuildIlpFormulation(cost_model, options));
          if (budget > 0) {
            encoded =
                formulation->EncodePartitioning(cost_model, warm.partitioning);
          }
        });
    s.formulation_vars = formulation->model.num_variables();
    s.formulation_rows = formulation->model.num_constraints();
    s.formulation_nnz = static_cast<long>(formulation->model.num_nonzeros());

    mip.time_limit_seconds = SolverBudget(request);
    mip.relative_gap = request.ilp.mip_gap;
    mip.enable_dive = request.ilp.enable_dive;
    mip.num_threads = request.ilp.bnb_threads > 0
                          ? request.ilp.bnb_threads
                          : std::max(1, request.num_threads);
    mip.lp_options.audit_level = request.ilp.lp_audit;
    if (!encoded.empty()) mip.initial_solution = &encoded;
    MipResult result;
    s.bnb_s = Leaf(spans, advise, request_index, "mip.bnb",
                   [&] { result = SolveMip(formulation->model, mip); });
    s.nodes = result.nodes;
    s.lp_solves = result.lp_stats.lp_solves;
    s.iterations = result.lp_stats.total_iterations();
    s.factorizations = result.lp_stats.factorizations;
    s.warm_starts = result.lp_stats.warm_starts;
    s.warm_start_failures = result.lp_stats.warm_start_failures;
    s.lp_seconds = result.lp_stats.lp_seconds;
    if (!result.has_incumbent()) return fail("branch & bound: no incumbent");
    solved = formulation->ExtractPartitioning(result.values);
    response.bnb_nodes = result.nodes;
    response.lp_stats = result.lp_stats;
    response.best_bound = result.best_bound;
    response.search_exhausted = result.search_exhausted;
    response.pruned_by_external_bound = result.pruned_by_external_bound;
    response.root_basis = result.root_basis;
    response.result.proven_optimal = result.status == MipStatus::kOptimal;
  } else {
    SaOptions sa;
    sa.seed = request.seed;
    sa.allow_replication = request.allow_replication;
    sa.max_restarts = request.sa.max_restarts;
    sa.time_limit_seconds = SolverBudget(request);
    sa.progress = [&s](const SaProgress&) { ++s.anneals; };
    SaResult result;
    s.sa_s = Leaf(spans, advise, request_index, "solver.sa", [&] {
      result = SolveWithSa(cost_model, request.num_sites, sa);
    });
    s.sa_iterations = result.iterations;
    s.sa_accepted = result.accepted;
    solved = std::move(result.partitioning);
  }

  // Pricing on the original instance, as Advise() does (the cost model is
  // rebuilt for it when grouping reduced the instance).
  std::shared_ptr<const CostCoefficients> full_model = *model;
  if (grouped) {
    StatusOr<std::shared_ptr<const CostCoefficients>> rebuilt =
        InvalidArgumentError("unbuilt");
    s.precompute_s +=
        Leaf(spans, advise, request_index, "cost.precompute", [&] {
          rebuilt = registry.Build(BorrowInstance(*instance), request.cost,
                                   request.cost_model);
        });
    if (!rebuilt.ok()) return fail(rebuilt.status().ToString());
    full_model = *rebuilt;
  }
  Status valid = Status::Ok();
  AdvisorResult& result = response.result;
  s.price_s = Leaf(spans, advise, request_index, "api.price", [&] {
    result.partitioning =
        grouped ? grouping->ExpandPartitioning(solved) : std::move(solved);
    valid = ValidatePartitioning(*instance, result.partitioning,
                                 !request.allow_replication);
    if (!valid.ok()) return;
    result.cost = full_model->Objective(result.partitioning);
    result.breakdown = full_model->Breakdown(result.partitioning);
    result.single_site_cost =
        full_model->Objective(SingleSiteBaseline(*instance, 1));
    result.reduction_percent =
        result.single_site_cost > 0
            ? 100.0 * (1.0 - result.cost / result.single_site_cost)
            : 0.0;
  });
  if (!valid.ok()) return fail(valid.ToString());
  result.algorithm_used = request.solver + (grouped ? "+groups" : "");
  response.solver_used = request.solver;
  response.cost_model_used = request.cost_model.backend;

  Status certified = Status::Ok();
  s.certify_s = Leaf(spans, advise, request_index, "check.certify", [&] {
    certified = CertifyResponse(*instance, request, response);
  });
  response.certified = certified.ok();
  s.replay_s = spans.Close(advise);
  result.seconds = s.replay_s;
  s.cost = result.cost;
  s.proven_optimal = result.proven_optimal;
  s.certified = response.certified;
  if (!certified.ok()) return fail(certified.ToString());

  s.json_s = Leaf(spans, root, request_index, "api.response_json", [&] {
    s.response_bytes = static_cast<long>(
        AdviseResponseToJson(*instance, response, cli->emit_partitioning, {})
            .Serialize()
            .size());
  });

  if (ilp) {
    LpResult lp;
    s.root_lp_s = Leaf(spans, root, request_index, "lp.root", [&] {
      SimplexSolver solver(formulation->model, mip.lp_options);
      lp = solver.Solve();
    });
    s.root_iterations = lp.iterations;
    s.root_factorizations = lp.factorizations;
    if (lp.status != LpStatus::kOptimal) return fail("root LP not optimal");
  }
  spans.Close(root);
  return s;
}

}  // namespace vpart::perfbench
