#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "api/advise.h"
#include "api/request_json.h"
#include "dist/wire_messages.h"
#include "engine/batch_advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/wire.h"

namespace vpart {
namespace {

long LongField(const JsonValue& message, const char* key, long fallback) {
  const JsonValue* value = message.Find(key);
  return (value != nullptr && value->is_number())
             ? static_cast<long>(value->as_number())
             : fallback;
}

/// Everything a job message expands into. Owned by the solver thread:
/// job messages ride the same queue as units, so a new session's state
/// never races a unit still solving under the previous one.
struct WorkerJob {
  CliRequest cli;
  std::vector<TableSubinstance> subs;
};

}  // namespace

Status RunDistWorker(Transport& transport, const WorkerOptions& options) {
  JsonValue hello = MakeDistMessage(kDistMsgHello);
  hello.Set("pid", static_cast<long>(::getpid()));
  VPART_RETURN_IF_ERROR(transport.Send(hello));

  std::atomic<bool> stop{false};

  // Heartbeats ride their own thread so a long table solve cannot starve
  // them into a false death verdict.
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double>(
        std::max(0.05, options.heartbeat_interval_seconds));
    std::unique_lock<std::mutex> lock(hb_mu);
    while (!hb_cv.wait_for(lock, interval, [&] {
      return stop.load(std::memory_order_relaxed);
    })) {
      if (!transport.Send(MakeDistMessage(kDistMsgHeartbeat)).ok()) break;
    }
  });
  auto request_stop = [&] {
    stop.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(hb_mu);
    }
    hb_cv.notify_all();
  };

  // Jobs and units queue in arrival order for the solver thread, so the
  // receive loop notices a shutdown while a table is still solving.
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<JsonValue> queue;
  bool queue_closed = false;

  static Counter& units_total = MetricsRegistry::Global().GetCounter(
      "vpart_dist_units_total", "Distributed work units solved by workers");

  std::thread solver([&] {
    WorkerJob job;
    bool got_job = false;
    int sent = 0;

    auto handle_job = [&](const JsonValue& message) -> Status {
      const JsonValue* request = message.Find("request");
      if (request == nullptr) {
        return InvalidArgumentError("dist worker: job needs a request");
      }
      // Revalidate through the same parser every other entry point uses: a
      // coordinator bug cannot smuggle an inconsistent job past the schema.
      StatusOr<CliRequest> parsed = ParseCliRequest(request->Serialize());
      VPART_RETURN_IF_ERROR(parsed.status());
      StatusOr<Instance> loaded = LoadCliInstance(*parsed);
      VPART_RETURN_IF_ERROR(loaded.status());
      StatusOr<std::vector<TableSubinstance>> split =
          SplitInstanceByTable(*loaded);
      VPART_RETURN_IF_ERROR(split.status());
      job.cli = std::move(*parsed);
      job.subs = std::move(*split);
      got_job = true;
      return Status::Ok();
    };

    auto solve_unit = [&](const JsonValue& unit) -> StatusOr<JsonValue> {
      const JsonValue* table = unit.Find("table");
      if (table == nullptr || !table->is_number()) {
        return InvalidArgumentError("dist worker: unit needs a table");
      }
      const int t = static_cast<int>(table->as_number());
      if (t < 0 || t >= static_cast<int>(job.subs.size())) {
        return InvalidArgumentError("dist worker: table index out of range");
      }
      // The exact per-table call AdviseSchema's in-process pool makes, so
      // the merged advice is byte-identical to a local batch.
      StatusOr<AdviseResponse> advised =
          Advise(job.subs[t].instance, job.cli.request);
      VPART_RETURN_IF_ERROR(advised.status());
      JsonValue reply = MakeDistMessage(kDistMsgUnitResult);
      reply.Set("advisor",
                EncodeAdvisorResult(job.subs[t].instance, advised->result));
      return reply;
    };

    while (true) {
      JsonValue item;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return queue_closed || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      if (DistMessageType(item) == kDistMsgJob) {
        Status handled = handle_job(item);
        if (!handled.ok()) {
          got_job = false;
          JsonValue reply = MakeDistMessage(kDistMsgUnitError);
          reply.Set("session", LongField(item, "session", 0));
          reply.Set("id", -1L);
          reply.Set("error", std::string(handled.message()));
          if (!transport.Send(reply).ok()) return;
        }
        continue;
      }
      // A unit.
      const long id = LongField(item, "id", -1);
      const long session = LongField(item, "session", 0);
      Span span("dist_unit", "dist");
      span.AddArg("id", id);
      StatusOr<JsonValue> answer =
          got_job ? solve_unit(item)
                  : StatusOr<JsonValue>(FailedPreconditionError(
                        "dist worker: unit before job"));
      JsonValue reply;
      if (answer.ok()) {
        reply = std::move(*answer);
      } else {
        reply = MakeDistMessage(kDistMsgUnitError);
        reply.Set("error", std::string(answer.status().message()));
      }
      reply.Set("id", id);
      reply.Set("session", session);
      if (!transport.Send(reply).ok()) return;
      units_total.Increment();
      if (options.fail_after_units > 0 && ++sent >= options.fail_after_units) {
        // Crash simulation: vanish mid-session. Abort (not Close) so the
        // receive loop unblocks the same way a real peer death would.
        request_stop();
        transport.Abort();
        return;
      }
    }
  });

  Status exit = Status::Ok();
  while (true) {
    StatusOr<JsonValue> message = transport.Receive();
    if (!message.ok()) {
      if (!IsCleanClose(message.status()) &&
          !stop.load(std::memory_order_relaxed)) {
        exit = message.status();
      }
      break;
    }
    const std::string type = DistMessageType(*message);
    if (type == kDistMsgShutdown) break;
    if (type == kDistMsgJob || type == kDistMsgUnit) {
      {
        std::lock_guard<std::mutex> lock(q_mu);
        queue.push_back(std::move(*message));
      }
      q_cv.notify_one();
      continue;
    }
    exit = InvalidArgumentError("dist worker: unexpected message type \"" +
                                type + "\"");
    break;
  }

  request_stop();
  {
    std::lock_guard<std::mutex> lock(q_mu);
    queue_closed = true;
    queue.clear();  // drop unstarted work; the coordinator requeues it
  }
  q_cv.notify_all();
  solver.join();
  heartbeat.join();
  transport.Close();
  return exit;
}

Status RunDistWorkerAt(const std::string& socket_path,
                       const WorkerOptions& options) {
  StatusOr<std::unique_ptr<Transport>> transport = ConnectUds(socket_path);
  VPART_RETURN_IF_ERROR(transport.status());
  return RunDistWorker(**transport, options);
}

InProcessWorker::InProcessWorker(const std::string& socket_path,
                                 const WorkerOptions& options)
    : status_(std::make_shared<Status>(Status::Ok())) {
  std::shared_ptr<Status> status = status_;
  thread_ = std::thread([socket_path, options, status] {
    *status = RunDistWorkerAt(socket_path, options);
  });
}

InProcessWorker::~InProcessWorker() {
  if (!joined_ && thread_.joinable()) thread_.join();
}

Status InProcessWorker::Join() {
  if (!joined_ && thread_.joinable()) thread_.join();
  joined_ = true;
  return *status_;
}

}  // namespace vpart
