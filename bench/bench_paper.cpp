// Reproduces the paper's tables, every cell one AdviseRequest solved
// through Advise():
//
//   Table 1  parameter influence on SA's cost (|T| = 20 and 100 classes)
//   Table 2  the random instance catalogue (--spec)
//   Table 3  QP (linearized ILP + branch & bound) vs SA, replication
//            allowed, remote placement
//   Table 4  the concrete TPC-C partitioning for |S| = 3
//   Table 5  replicated vs disjoint partitioning (QP)
//   Table 6  local (p = 0) vs remote (p = 8) placement, both solvers
//
// usage: bench_paper [--table N]... [--spec]
//   With no flag every table prints. --table N (N = 1, 3, 4, 5 or 6,
//   repeatable) and --spec (Table 2) select a subset.
//
// Cells are fixed work, so two runs print the same costs:
//   * ILP cells run unlimited with a serial branch & bound and are proven
//     and certified. The exceptions are 18 of Table 3's 4-site random rows,
//     which the paper also capped: they run under kBudgetedIlpSeconds and
//     print "(cost)" when the budget ends the search, "t/o" without answer.
//   * SA cells run a fixed number of anneals (sa.max_restarts).
//
// After each table the bench checks the table's shape (the paper's
// qualitative findings, and the TPC-C optima that tests/tpcc_golden_test.cc
// pins) and exits 1 when a check fails. DESIGN.md ("Substitutions and
// deviations") records where the numbers differ from the paper's.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "api/advise.h"
#include "api/solver_registry.h"
#include "bench_util.h"
#include "cost/cost_model.h"
#include "report/partition_report.h"

namespace vpart::bench {
namespace {

const CostParams kRemote{.p = 8, .lambda = 0.1};
const CostParams kLocal{.p = 0, .lambda = 0.1};

/// The paper's "MIP tolerance gap of 0.1%" (also the request default).
constexpr double kMipGap = 0.001;
/// Budget of Table 3's ILP rows that do not prove in reasonable time.
constexpr double kBudgetedIlpSeconds = 5.0;
/// SA runs restarts only under a time limit (SaRequestOptions::max_restarts).
/// This one is far above the work, so the restart cap alone ends each SA
/// cell and its answer is a function of the seed.
constexpr double kSaTimeLimitSeconds = 600.0;
constexpr int kSaMaxRestarts = 6;

// TPC-C optima of objective (4) pinned by tests/tpcc_golden_test.cc.
constexpr double kTpccSingleSite = 50163;
constexpr double kTpccDisjointTwoSite = 50019;
constexpr double kTpccLocalThreeSite = 33332;  // p = 0

/// The replicated TPC-C optimum at p = 8 for 1-4 sites (no gain past 3).
double TpccOptimum(int sites) {
  const double optimum[] = {kTpccSingleSite, 36653, 36572, 36572};
  return optimum[sites - 1];
}

const std::vector<const char*> kInstances = {
    "rndAt4x15",  "rndAt8x15",  "rndAt16x15",  "rndAt32x15",  "rndAt64x15",
    "rndAt4x100", "rndAt8x100", "rndAt16x100", "rndAt32x100", "rndAt64x100",
    "rndBt4x15",  "rndBt8x15",  "rndBt16x15",  "rndBt32x15",  "rndBt64x15",
    "rndBt4x100", "rndBt8x100", "rndBt16x100", "rndBt32x100", "rndBt64x100",
};

/// The paper's QP: §4 grouping, linearized ILP, 0.1% gap. Unlimited and
/// serial unless a budget is given, so the answer is proven and repeatable.
AdviseRequest IlpRequest(int sites, const CostParams& cost,
                         bool allow_replication = true,
                         double time_limit_seconds = 0) {
  AdviseRequest request;
  request.solver = kSolverIlp;
  request.num_sites = sites;
  request.cost = cost;
  request.allow_replication = allow_replication;
  request.time_limit_seconds = time_limit_seconds;
  request.ilp.mip_gap = kMipGap;
  request.ilp.bnb_threads = 1;
  request.certify = true;
  return request;
}

/// The paper's SA heuristic on the full (ungrouped) instance.
AdviseRequest SaRequest(int sites, const CostParams& cost, uint64_t seed) {
  AdviseRequest request;
  request.solver = kSolverSa;
  request.num_sites = sites;
  request.cost = cost;
  request.use_attribute_grouping = false;
  request.time_limit_seconds = kSaTimeLimitSeconds;
  request.sa.max_restarts = kSaMaxRestarts;
  request.seed = seed;
  request.certify = true;
  return request;
}

/// Counts the shape checks; main exits 1 when any failed.
struct Checks {
  int run = 0;
  int failed = 0;

  void Expect(bool ok, const std::string& what) {
    ++run;
    if (ok) return;
    ++failed;
    std::printf("shape check FAILED: %s\n", what.c_str());
  }
};

/// Solves one cell. Any error fails a check, except a budgeted ILP cell
/// that ran out of time without an answer ("t/o"); an unlimited ILP cell
/// must also come back proven.
StatusOr<AdviseResponse> Solve(const Instance& instance,
                               const AdviseRequest& request,
                               const std::string& label, Checks& checks) {
  StatusOr<AdviseResponse> cell = Advise(instance, request);
  const bool budgeted = request.time_limit_seconds > 0;
  if (!cell.ok()) {
    checks.Expect(request.solver == kSolverIlp && budgeted &&
                      cell.status().code() == StatusCode::kDeadlineExceeded,
                  label + ": " + cell.status().ToString());
  } else if (request.solver == kSolverIlp && !budgeted) {
    checks.Expect(cell->result.proven_optimal,
                  label + " is not proven optimal");
  }
  return cell;
}

/// QP cell: "cost" when proven, "(cost)" when the budget ended the search,
/// "t/o" without an answer.
std::string QpCell(const StatusOr<AdviseResponse>& cell) {
  if (!cell.ok()) return "t/o";
  return FormatCostCell(true, !cell->result.proven_optimal,
                        cell->result.cost, 1e3);
}

std::string SaCell(const StatusOr<AdviseResponse>& cell) {
  return cell.ok() ? FormatCost(cell->result.cost, 1e3) : "error";
}

std::string SecondsCell(const StatusOr<AdviseResponse>& cell) {
  return cell.ok() ? Seconds(cell->result.seconds) : "-";
}

/// Expects a cell to hold exactly `cost` (objective (4)).
void ExpectCost(Checks& checks, const StatusOr<AdviseResponse>& cell,
                double cost, const std::string& label) {
  const std::string got =
      cell.ok() ? StrFormat("%.0f", cell->result.cost) : "no answer";
  checks.Expect(cell.ok() && cell->result.cost == cost,
                StrFormat("%s = %s, expected %.0f", label.c_str(),
                          got.c_str(), cost));
}

/// One row of Tables 3, 5 and 6: an instance at a site count.
struct Row {
  std::string name;
  Instance instance;
  int sites;

  bool IsTpcc() const { return name == "TPC-C v5"; }
  std::string Label(int table) const {
    return StrFormat("Table %d %s |S|=%d", table, name.c_str(), sites);
  }
  /// The leading instance, |A|, |T| and |S| cells.
  std::vector<std::string> Cells() const {
    return {name, StrFormat("%d", instance.num_attributes()),
            StrFormat("%d", instance.num_transactions()),
            StrFormat("%d", sites)};
  }
};

/// TPC-C at each of `tpcc_sites`, then each named random instance at
/// `random_sites`.
std::vector<Row> Rows(const std::vector<int>& tpcc_sites,
                      const std::vector<const char*>& random_names,
                      int random_sites) {
  std::vector<Row> rows;
  const Instance tpcc = MakeTpccInstance();
  for (int sites : tpcc_sites) rows.push_back({"TPC-C v5", tpcc, sites});
  for (const char* name : random_names) {
    auto instance = MakeNamedRandomInstance(name);
    if (instance.ok()) {
      rows.push_back({name, std::move(*instance), random_sites});
    }
  }
  return rows;
}

// ------------------------------------------------------------- Table 1 --

struct ParameterRow {
  const char* label;
  std::vector<double> values;
  std::function<void(RandomInstanceParams&, double)> apply;
};

void Table1Class(int size, Checks& checks) {
  std::printf("Table 1 — parameter influence, class #tables = |T| = %d "
              "(SA solver, costs x1e3)\n", size);
  const std::vector<ParameterRow> rows = {
      {"A max queries/txn", {1, 3, 5},
       [](RandomInstanceParams& p, double v) {
         p.max_queries_per_transaction = static_cast<int>(v);
       }},
      {"B percent updates", {0, 10, 30},
       [](RandomInstanceParams& p, double v) { p.update_percent = v; }},
      {"C max attrs/table", {5, 15, 35},
       [](RandomInstanceParams& p, double v) {
         p.max_attributes_per_table = static_cast<int>(v);
       }},
      {"D max table refs/query", {2, 5, 10},
       [](RandomInstanceParams& p, double v) {
         p.max_table_refs_per_query = static_cast<int>(v);
       }},
      {"E max attr refs/query", {5, 15, 25},
       [](RandomInstanceParams& p, double v) {
         p.max_attribute_refs_per_query = static_cast<int>(v);
       }},
      {"F attribute widths", {0, 1, 2},
       [](RandomInstanceParams& p, double v) {
         const std::vector<std::vector<double>> sets = {
             {2, 4, 8}, {4, 8}, {4, 8, 16}};
         p.allowed_widths = sets[static_cast<int>(v)];
       }},
  };
  const char* const f_labels[] = {"{2,4,8}", "{4,8}", "{4,8,16}"};

  TablePrinter table({"parameter", "value", "|S|=1", "|S|=2", "|S|=3"});
  for (size_t r = 0; r < rows.size(); ++r) {
    const ParameterRow& row = rows[r];
    for (size_t i = 0; i < row.values.size(); ++i) {
      RandomInstanceParams params = Table1DefaultParams(
          size, /*seed=*/911 + 1000 * size + 10 * r + i);
      row.apply(params, row.values[i]);
      const Instance instance = MakeRandomInstance(params);

      const std::string value = row.label[0] == 'F'
                                    ? f_labels[i]
                                    : StrFormat("%g", row.values[i]);
      std::vector<StatusOr<AdviseResponse>> sa;
      for (int sites : {2, 3}) {
        sa.push_back(Solve(
            instance, SaRequest(sites, kRemote, /*seed=*/17 + i),
            StrFormat("Table 1 %s = %s, SA |S|=%d", row.label, value.c_str(),
                      sites),
            checks));
      }
      const double baseline = sa[0].ok() ? sa[0]->result.single_site_cost : 0;
      std::vector<std::string> cells = {row.label, value,
                                        FormatCost(baseline, 1e3)};
      for (const StatusOr<AdviseResponse>& cell : sa) {
        cells.push_back(MarkIfWorse(SaCell(cell), cell.ok(),
                                    cell.ok() ? cell->result.cost : 0,
                                    baseline));
      }
      table.AddRow(std::move(cells));
    }
    if (r + 1 < rows.size()) table.AddSeparator();
  }
  std::printf("%s\n", table.ToString().c_str());
}

void Table1(Checks& checks) {
  Table1Class(20, checks);
  Table1Class(100, checks);
}

// ------------------------------------------------------------- Table 2 --

void Table2() {
  std::printf("Table 2 — random instance classes\n");
  TablePrinter table({"name", "A", "B%", "C", "D", "E", "F", "|T|",
                      "#tables", "|A| (drawn)"});
  for (const char* name : kInstances) {
    auto params = ParseNamedInstanceParams(name);
    if (!params.ok()) continue;
    Instance instance = MakeRandomInstance(params.value());
    std::vector<std::string> widths;
    for (double w : params->allowed_widths) {
      widths.push_back(StrFormat("%g", w));
    }
    table.AddRow({name, StrFormat("%d", params->max_queries_per_transaction),
                  StrFormat("%g", params->update_percent),
                  StrFormat("%d", params->max_attributes_per_table),
                  StrFormat("%d", params->max_table_refs_per_query),
                  StrFormat("%d", params->max_attribute_refs_per_query),
                  "{" + JoinStrings(widths, ",") + "}",
                  StrFormat("%d", params->num_transactions),
                  StrFormat("%d", params->num_tables),
                  StrFormat("%d", instance.num_attributes())});
  }
  std::printf("%s\n", table.ToString().c_str());
}

// ------------------------------------------------------------- Table 3 --

/// The two 4-site random rows whose ILP proves in about a second. The
/// other 18 run under kBudgetedIlpSeconds.
bool Table3RowProves(const std::string& name) {
  return name == "rndBt4x15" || name == "rndBt8x15";
}

/// SA's objective (6) over the proven QP optimum's. Both minimize (6), so
/// SA may not undercut a proof by more than the 0.1% gap.
double ScalarizedRatio(const Instance& instance, const AdvisorResult& sa,
                       const AdvisorResult& qp) {
  const CostModel model(&instance, kRemote);
  return model.ScalarizedObjective(sa.partitioning) /
         model.ScalarizedObjective(qp.partitioning);
}

void Table3(Checks& checks) {
  std::printf("Table 3 — QP vs SA, replication allowed, remote placement "
              "(costs x1e3; QP gap 0.1%%, unlimited where proven, else "
              "%.0fs; SA %d restarts)\n",
              kBudgetedIlpSeconds, kSaMaxRestarts);
  TablePrinter table({"instance", "|A|", "|T|", "|S|", "QP cost", "QP t(s)",
                      "SA cost", "SA t(s)", "SA/QP", "|S|=1"});
  std::vector<double> sa_over_optimum;
  StatusOr<AdviseResponse> tpcc_three_sites = InternalError("unsolved");
  const std::vector<Row> rows = Rows({2, 3, 4}, kInstances, 4);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (i > 0 && rows[i - 1].IsTpcc() != row.IsTpcc()) table.AddSeparator();
    const std::string label = row.Label(3);
    const bool proves = row.IsTpcc() || Table3RowProves(row.name);
    StatusOr<AdviseResponse> qp = Solve(
        row.instance,
        IlpRequest(row.sites, kRemote, true,
                   proves ? 0 : kBudgetedIlpSeconds),
        label + " QP", checks);
    const StatusOr<AdviseResponse> sa =
        Solve(row.instance, SaRequest(row.sites, kRemote, /*seed=*/1),
              label + " SA", checks);
    std::string ratio = "-";
    if (qp.ok() && sa.ok() && qp->result.proven_optimal) {
      ratio = StrFormat("%.3f", sa->result.cost / qp->result.cost);
      sa_over_optimum.push_back(sa->result.cost / qp->result.cost);
      checks.Expect(ScalarizedRatio(row.instance, sa->result, qp->result) >=
                        1 - kMipGap,
                    label + ": SA undercuts the proven optimum beyond the gap");
    }
    const double baseline = qp.ok()   ? qp->result.single_site_cost
                            : sa.ok() ? sa->result.single_site_cost
                                      : 0;
    std::vector<std::string> cells = row.Cells();
    cells.insert(
        cells.end(),
        {MarkIfWorse(QpCell(qp), qp.ok(), qp.ok() ? qp->result.cost : 0,
                     baseline),
         SecondsCell(qp),
         MarkIfWorse(SaCell(sa), sa.ok(), sa.ok() ? sa->result.cost : 0,
                     baseline),
         SecondsCell(sa), ratio, FormatCost(baseline, 1e3)});
    table.AddRow(std::move(cells));
    if (row.IsTpcc()) {
      ExpectCost(checks, qp, TpccOptimum(row.sites), label + " QP");
      if (row.sites == 3) tpcc_three_sites = std::move(qp);
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  if (!sa_over_optimum.empty()) {
    std::sort(sa_over_optimum.begin(), sa_over_optimum.end());
    std::printf("SA cost / proven optimum over the %zu proven cells: "
                "min %.3f, median %.3f, max %.3f\n",
                sa_over_optimum.size(), sa_over_optimum.front(),
                sa_over_optimum[sa_over_optimum.size() / 2],
                sa_over_optimum.back());
  }
  // The paper's headline: TPC-C cost reduction vs the single-site layout.
  if (tpcc_three_sites.ok()) {
    const AdvisorResult& best = tpcc_three_sites->result;
    std::printf("TPC-C headline: %.0f -> %.0f = %.1f%% cost reduction "
                "(paper: 37%%)\n",
                best.single_site_cost, best.cost, best.reduction_percent);
    checks.Expect(best.single_site_cost == kTpccSingleSite,
                  "Table 3 TPC-C single-site cost is not 50163");
  }
}

// ------------------------------------------------------------- Table 4 --

void Table4(Checks& checks) {
  const Instance tpcc = MakeTpccInstance();
  std::printf("Table 4 — TPC-C partitioning for |S| = 3 (QP solver, p = 8, "
              "lambda = 0.1)\n\n");
  const StatusOr<AdviseResponse> cell =
      Solve(tpcc, IlpRequest(3, kRemote), "Table 4 TPC-C |S|=3", checks);
  if (!cell.ok()) return;
  const AdvisorResult& result = cell->result;
  const Partitioning& partitioning = result.partitioning;
  const CostModel model(&tpcc, kRemote);
  std::printf("%s", RenderPartitionTable(tpcc, partitioning).c_str());
  std::printf("%s\n", RenderPartitionSummary(model, partitioning).c_str());
  std::printf("single-site cost %.0f -> partitioned %.0f (%.1f%% reduction; "
              "paper reports 37%%)\n",
              result.single_site_cost, result.cost,
              result.reduction_percent);

  ExpectCost(checks, cell, TpccOptimum(3), "Table 4 cost");
  checks.Expect(result.single_site_cost == kTpccSingleSite,
                "Table 4 single-site cost is not 50163");
  auto site_of = [&](const char* name) {
    const StatusOr<int> t = tpcc.workload().FindTransaction(name);
    return t.ok() ? partitioning.SiteOfTransaction(*t) : -1;
  };
  auto alone = [&](const char* name) {
    const int site = site_of(name);
    return site >= 0 && partitioning.TransactionsOnSite(site).size() == 1;
  };
  checks.Expect(alone("Payment"), "Table 4: Payment is not alone");
  checks.Expect(alone("StockLevel"), "Table 4: StockLevel is not alone");
  checks.Expect(site_of("NewOrder") == site_of("Delivery") &&
                    site_of("NewOrder") == site_of("OrderStatus"),
                "Table 4: NewOrder, Delivery and OrderStatus are split");
  std::printf("\n");
}

// ------------------------------------------------------------- Table 5 --

void Table5(Checks& checks) {
  std::printf("Table 5 — replicated vs disjoint partitioning (QP solver, "
              "costs x1e3)\n");
  TablePrinter table({"instance", "|A|", "|T|", "|S|", "w/ repl", "t(s)",
                      "w/o repl", "t(s)", "ratio"});
  for (const Row& row : Rows({1, 2, 3, 4}, {"rndAt4x15", "rndAt8x15",
                                            "rndBt8x15", "rndBt16x15"},
                              2)) {
    const std::string label = row.Label(5);
    const StatusOr<AdviseResponse> with =
        Solve(row.instance, IlpRequest(row.sites, kRemote, true),
              label + " w/ repl", checks);
    const StatusOr<AdviseResponse> without =
        Solve(row.instance, IlpRequest(row.sites, kRemote, false),
              label + " w/o repl", checks);
    std::string ratio = "-";
    if (with.ok() && without.ok()) {
      const double percent = 100.0 * with->result.cost / without->result.cost;
      ratio = StrFormat("%.0f%%", percent);
      // Each side is proven to the gap; replication only adds options.
      checks.Expect(with->result.cost <= without->result.cost * (1 + kMipGap),
                    label + ": replicated costs more than disjoint");
      if (row.IsTpcc() && row.sites > 1) {
        checks.Expect(std::lround(percent) == 73,
                      label + ": ratio " + ratio + ", expected 73%");
      }
    }
    if (row.IsTpcc()) {
      ExpectCost(checks, with, TpccOptimum(row.sites), label + " w/ repl");
      if (row.sites <= 2) {
        ExpectCost(checks, without,
                   row.sites == 1 ? kTpccSingleSite : kTpccDisjointTwoSite,
                   label + " w/o repl");
      }
    }
    std::vector<std::string> cells = row.Cells();
    cells.insert(cells.end(), {QpCell(with), SecondsCell(with),
                               QpCell(without), SecondsCell(without), ratio});
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.ToString().c_str());
}

// ------------------------------------------------------------- Table 6 --

void Table6(Checks& checks) {
  std::printf("Table 6 — local (p=0) vs remote (p=8) placement, replication "
              "allowed (costs x1e3)\n");
  TablePrinter table({"instance", "|A|", "|T|", "|S|", "local QP", "local SA",
                      "remote QP", "remote SA"});
  for (const Row& row :
       Rows({1, 2, 3},
            {"rndAt4x15", "rndAt8x15", "rndAt8x15u50", "rndBt8x15",
             "rndBt16x15", "rndBt16x15u50"},
            2)) {
    const std::string label = row.Label(6);
    const StatusOr<AdviseResponse> lqp = Solve(
        row.instance, IlpRequest(row.sites, kLocal), label + " local QP",
        checks);
    const StatusOr<AdviseResponse> lsa =
        Solve(row.instance, SaRequest(row.sites, kLocal, /*seed=*/1),
              label + " local SA", checks);
    const StatusOr<AdviseResponse> rqp = Solve(
        row.instance, IlpRequest(row.sites, kRemote), label + " remote QP",
        checks);
    const StatusOr<AdviseResponse> rsa =
        Solve(row.instance, SaRequest(row.sites, kRemote, /*seed=*/1),
              label + " remote SA", checks);
    // Only updates move data between sites, so write-heavy instances gain
    // from local placement.
    if (row.name.find("u50") != std::string::npos) {
      checks.Expect(lqp.ok() && rqp.ok() &&
                        lqp->result.cost < rqp->result.cost,
                    label + ": local QP is not below remote QP");
    }
    if (row.IsTpcc()) {
      ExpectCost(checks, rqp, TpccOptimum(row.sites), label + " remote QP");
      if (row.sites == 3) {
        ExpectCost(checks, lqp, kTpccLocalThreeSite, label + " local QP");
      }
    }
    std::vector<std::string> cells = row.Cells();
    cells.insert(cells.end(),
                 {QpCell(lqp), SaCell(lsa), QpCell(rqp), SaCell(rsa)});
    table.AddRow(std::move(cells));
  }
  std::printf("%s\n", table.ToString().c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_paper [--table N]... [--spec]  "
               "(N = 1, 3, 4, 5 or 6; no flag prints every table)\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::set<int> tables;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0) {
      tables.insert(2);
    } else if (std::strcmp(argv[i], "--table") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long n = std::strtol(argv[++i], &end, 10);
      if (*end != '\0' || (n != 1 && (n < 3 || n > 6))) return Usage();
      tables.insert(static_cast<int>(n));
    } else {
      return Usage();
    }
  }
  if (tables.empty()) tables = {1, 2, 3, 4, 5, 6};

  Checks checks;
  for (int table : tables) {
    const int failed_before = checks.failed;
    switch (table) {
      case 1: Table1(checks); break;
      case 2: Table2(); break;
      case 3: Table3(checks); break;
      case 4: Table4(checks); break;
      case 5: Table5(checks); break;
      case 6: Table6(checks); break;
    }
    if (table != 2) {
      std::printf("Table %d shape: %s\n\n", table,
                  checks.failed == failed_before ? "ok" : "FAILED");
    }
  }
  std::printf("%d shape checks, %d failed\n", checks.run, checks.failed);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vpart::bench

int main(int argc, char** argv) { return vpart::bench::Main(argc, argv); }
