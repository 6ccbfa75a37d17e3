// End-to-end distributed batches (dist/coordinator.h + dist/worker.h):
// coordinator and workers inside one process (InProcessWorker threads —
// what the TSan CI leg runs), plus a spawned-process leg with a mid-session
// SIGKILL. The load-bearing contracts:
//
//   * equivalence — a distributed batch (any worker count) gives every
//     table the same cost, proof flag and partitioning as a local
//     AdviseSchema of the same request, and so the same merged advice;
//   * wire audit — every table result a worker ships back is proven
//     optimal and certifies on its own over the table's subinstance;
//   * fault tolerance — killing a worker mid-session loses no units: the
//     ledger requeues them and the merged advice does not change;
//   * loud failure — a worker's rejection of the job fails the session
//     with the worker's own reason;
//   * clean teardown — Shutdown() joins every thread (TSan-checked).

#include <sys/types.h>
#include <csignal>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/advise.h"
#include "check/certifier.h"
#include "cost/partitioning_io.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/wire_messages.h"
#include "dist/worker.h"
#include "engine/batch_advisor.h"
#include "gtest/gtest.h"
#include "instances/random_instance.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

std::string TestSocket(const char* tag) {
  return "/tmp/vpart_dist_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// Coordinator plus `n` in-process workers, ready to dispatch.
struct Cluster {
  std::unique_ptr<DistCoordinator> coordinator;
  std::vector<std::unique_ptr<InProcessWorker>> workers;
};

Cluster StartCluster(const char* tag, int num_workers,
                     const WorkerOptions& first_worker_options = {}) {
  DistCoordinator::Options options;
  options.socket_path = TestSocket(tag);
  options.num_workers = num_workers;
  options.spawn_workers = false;
  Cluster cluster;
  auto started = DistCoordinator::Start(options);
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  if (!started.ok()) return cluster;
  cluster.coordinator = std::move(*started);
  for (int w = 0; w < num_workers; ++w) {
    cluster.workers.push_back(std::make_unique<InProcessWorker>(
        options.socket_path, w == 0 ? first_worker_options
                                    : WorkerOptions{}));
  }
  EXPECT_TRUE(cluster.coordinator->WaitForWorkers(num_workers, 30.0));
  return cluster;
}

/// A deterministic per-table request: serial B&B with no time-budgeted SA
/// warm start, so every run proves the same optimum with the same layout.
BatchAdviseRequest TableRequest() {
  BatchAdviseRequest batch;
  batch.request.solver = "ilp";
  batch.request.num_sites = 3;
  batch.request.time_limit_seconds = 60.0;
  batch.request.ilp.warm_start_seconds = 0.0;
  batch.request.certify = true;  // independent SolutionCertifier pass
  batch.request.obs = ObsLevel::kOff;
  return batch;
}

/// Every table's cost, proof flag and partitioning (as partitioning_io
/// text over its subinstance), plus the merged cost and layout, match.
void ExpectSameAdvice(const Instance& instance,
                      const BatchAdvisorResult& local,
                      const BatchAdvisorResult& dist) {
  auto subs = SplitInstanceByTable(instance);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(local.tables.size(), subs->size());
  ASSERT_EQ(dist.tables.size(), subs->size());
  for (size_t i = 0; i < subs->size(); ++i) {
    const Instance& table = (*subs)[i].instance;
    const AdvisorResult& want = local.tables[i].result;
    const AdvisorResult& got = dist.tables[i].result;
    EXPECT_EQ(dist.tables[i].table_id, local.tables[i].table_id);
    EXPECT_EQ(got.cost, want.cost) << "table " << local.tables[i].table_name;
    EXPECT_EQ(got.proven_optimal, want.proven_optimal)
        << "table " << local.tables[i].table_name;
    EXPECT_EQ(WritePartitioningText(table, got.partitioning),
              WritePartitioningText(table, want.partitioning))
        << "table " << local.tables[i].table_name;
  }
  EXPECT_EQ(dist.combined.cost, local.combined.cost);
  EXPECT_EQ(dist.combined.single_site_cost, local.combined.single_site_cost);
  EXPECT_EQ(WritePartitioningText(instance, dist.combined.partitioning),
            WritePartitioningText(instance, local.combined.partitioning));
}

TEST(DistTableTest, TpccBatchMatchesLocalAdviseSchema) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("tab", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(tpcc, *local, *dist);
  EXPECT_EQ(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->Join().ok());
  }
}

/// Audits what crossed the wire on its own terms, not against a local run:
/// every table comes back proven optimal, and its decoded layout, cost,
/// breakdown and baseline pass the SolutionCertifier over the table's
/// subinstance. The wire ships the proof flag but not the dual bound
/// behind it (the worker certified its own proof before answering), so
/// the audited copy drops the flag and the certifier checks the layout.
TEST(DistTableTest, TpccBatchShipsCertifiableTablesWithTwoWorkers) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto subs = SplitInstanceByTable(tpcc);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();

  Cluster cluster = StartCluster("cert", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ASSERT_EQ(dist->tables.size(), subs->size());
  const SolutionCertifier certifier;
  double summed_cost = 0.0;
  for (size_t i = 0; i < subs->size(); ++i) {
    const TableAdvice& table = dist->tables[i];
    EXPECT_TRUE(table.result.proven_optimal) << "table " << table.table_name;
    AdviseResponse shipped;
    shipped.result = table.result;
    shipped.result.proven_optimal = false;
    const CertificationReport report =
        certifier.Certify((*subs)[i].instance, batch.request, shipped);
    EXPECT_TRUE(report.certified)
        << "table " << table.table_name << ": " << report.Summary();
    summed_cost += table.result.cost;
  }
  EXPECT_DOUBLE_EQ(dist->combined.cost, summed_cost);
  EXPECT_EQ(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->Join().ok());
  }
}

TEST(DistTableTest, TpccBatchMatchesLocalWithFourWorkers) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("t4", /*num_workers=*/4);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(tpcc, *local, *dist);
  cluster.coordinator->Shutdown();
}

TEST(DistTableTest, RandomInstanceBatchMatchesLocalWithFourWorkers) {
  auto instance = MakeNamedRandomInstance("rndAt8x15");  // 8 tables
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  BatchAdviseRequest batch = TableRequest();
  batch.request.num_sites = 2;
  auto local = AdviseSchema(*instance, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("rnd", /*num_workers=*/4);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(*instance, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(*instance, *local, *dist);
  cluster.coordinator->Shutdown();
}

TEST(DistTableTest, SequentialSessionsReuseTheCluster) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  Cluster cluster = StartCluster("seq", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  for (int round = 0; round < 2; ++round) {
    auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
    ASSERT_TRUE(dist.ok()) << "round " << round << ": "
                           << dist.status().ToString();
    ExpectSameAdvice(tpcc, *local, *dist);
  }
  cluster.coordinator->Shutdown();
}

/// A worker that rejects the session's job answers with "id": -1. The
/// session must fail with that worker's own reason, not with whatever the
/// worker says about the units it was sent afterwards.
TEST(DistTableTest, WorkerJobErrorFailsTheSession) {
  DistCoordinator::Options options;
  options.socket_path = TestSocket("joberr");
  options.num_workers = 1;
  options.spawn_workers = false;
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto& coordinator = *started;

  std::thread fake([&] {
    auto transport = ConnectUds(options.socket_path);
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    JsonValue hello = MakeDistMessage(kDistMsgHello);
    hello.Set("pid", static_cast<long>(::getpid()));
    ASSERT_TRUE((*transport)->Send(hello).ok());
    while (true) {
      StatusOr<JsonValue> message = (*transport)->Receive();
      if (!message.ok()) break;
      const std::string type = DistMessageType(*message);
      if (type == kDistMsgShutdown) break;
      const JsonValue* session = message->Find("session");
      JsonValue reply = MakeDistMessage(kDistMsgUnitError);
      reply.Set("session", session != nullptr ? session->as_number() : 0.0);
      if (type == kDistMsgJob) {
        reply.Set("id", -1L);
        reply.Set("error", "boom");
      } else {
        // What a real worker says about units that follow a failed job.
        const JsonValue* id = message->Find("id");
        reply.Set("id", id != nullptr ? id->as_number() : -1.0);
        reply.Set("error", "dist worker: unit before job");
      }
      if (!(*transport)->Send(reply).ok()) break;
    }
    (*transport)->Close();
  });

  ASSERT_TRUE(coordinator->WaitForWorkers(1, 30.0));
  const Instance tpcc = MakeTpccInstance();
  auto dist = coordinator->AdviseSchemaDistributed(tpcc, TableRequest());
  ASSERT_FALSE(dist.ok());
  EXPECT_NE(dist.status().message().find("boom"), std::string::npos)
      << dist.status().ToString();
  coordinator->Shutdown();
  fake.join();
}

TEST(DistFailureTest, WorkerCrashMidSessionRequeuesAndStillCertifies) {
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  // Worker 0 drops its connection after one unit result — a crash as far
  // as the coordinator can tell. The coordinator hands it the next table
  // as soon as the first result lands, so that table is stranded and must
  // requeue to the surviving worker; the merged answer must not change.
  WorkerOptions crashy;
  crashy.fail_after_units = 1;
  Cluster cluster = StartCluster("kill", /*num_workers=*/2, crashy);
  ASSERT_NE(cluster.coordinator, nullptr);
  auto dist = cluster.coordinator->AdviseSchemaDistributed(tpcc, batch);
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(tpcc, *local, *dist);
  EXPECT_GT(cluster.coordinator->requeued_total(), 0);
  cluster.coordinator->Shutdown();
}

TEST(DistShutdownTest, StartAndShutdownJoinsEverything) {
  Cluster cluster = StartCluster("shut", /*num_workers=*/2);
  ASSERT_NE(cluster.coordinator, nullptr);
  EXPECT_EQ(cluster.coordinator->usable_workers(), 2);
  cluster.coordinator->Shutdown();
  for (auto& worker : cluster.workers) {
    EXPECT_TRUE(worker->Join().ok());
  }
  // Idempotent: a second Shutdown (and the destructor after it) is a no-op.
  cluster.coordinator->Shutdown();
}

TEST(DistShutdownTest, DispatchWithoutWorkersFailsFast) {
  DistCoordinator::Options options;
  options.socket_path = TestSocket("none");
  options.num_workers = 1;
  options.spawn_workers = false;  // nobody will ever attach
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  EXPECT_FALSE((*started)->WaitForWorkers(1, 0.2));
  const Instance tpcc = MakeTpccInstance();
  auto dist = (*started)->AdviseSchemaDistributed(tpcc, TableRequest());
  EXPECT_FALSE(dist.ok());
  (*started)->Shutdown();
}

/// Spawned-process leg: real fork+exec'd vpart_cli workers, one of which
/// is SIGKILLed mid-session. Skipped when vpart_cli is not next to the test
/// binary (ctest runs from the build dir, where it always is).
TEST(DistProcessTest, SigkilledWorkerProcessDoesNotLoseTheProof) {
  if (::access("./vpart_cli", X_OK) != 0) {
    GTEST_SKIP() << "vpart_cli not found in the working directory";
  }
  const Instance tpcc = MakeTpccInstance();
  const BatchAdviseRequest batch = TableRequest();
  auto local = AdviseSchema(tpcc, batch);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  DistCoordinator::Options options;
  options.socket_path = TestSocket("proc");
  options.num_workers = 2;
  options.spawn_workers = true;
  options.worker_binary = "./vpart_cli";
  auto started = DistCoordinator::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto& coordinator = *started;
  const std::vector<pid_t> pids = coordinator->worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  // Freeze one worker before the session starts: the coordinator still
  // hands it a table (the socket buffers the job and the unit), and it can
  // never answer, so the session cannot finish before the kill lands and
  // the kill always strands that table.
  ASSERT_EQ(::kill(pids[0], SIGSTOP), 0);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::kill(pids[0], SIGKILL);
  });
  auto dist = coordinator->AdviseSchemaDistributed(tpcc, batch);
  killer.join();
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  ExpectSameAdvice(tpcc, *local, *dist);
  EXPECT_GT(coordinator->requeued_total(), 0);
  EXPECT_EQ(coordinator->usable_workers(), 1);
  coordinator->Shutdown();
}

}  // namespace
}  // namespace vpart
