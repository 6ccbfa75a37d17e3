#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/advise.h"
#include "api/request_json.h"
#include "api/solver_registry.h"
#include "engine/thread_pool.h"
#include "inputs.h"
#include "instances/random_instance.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workload/instance_io.h"

namespace vpart::perfbench {
namespace {

/// Each set-up (before a cycle of requests, or a serve episode) runs this
/// many times, each timed, so setup_s is a median over many repetitions.
constexpr int kSetUpRepeats = 5;

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

double NumberOr(const JsonValue& object, const char* key, double fallback) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string StringOr(const JsonValue& object, const char* key,
                     const std::string& fallback) {
  const JsonValue* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : fallback;
}

// ------------------------------------------------------------ solve ------

struct SolveRequest {
  std::string key;
  /// What is sent: the recorded request, its instance renamed from the seed.
  std::string text;
  double reference = kNoReference;
  /// SA requests: the anneal count a full run must reach (0 for ILP).
  long anneals = 0;
  /// The recorded request, naming its instance, and that instance's text
  /// before renaming; the timed set-up regenerates it from `source`.
  CliRequest source;
  std::string vpi;
};

/// Parses the recorded requests and generates each instance once, embedded
/// in the request text with its names relabelled from `seed`.
Status PrepareSolveRequests(const JsonValue& spec, uint64_t seed,
                            std::vector<SolveRequest>& out) {
  const JsonValue* requests = spec.Find("requests");
  if (requests == nullptr || !requests->is_array()) {
    return InvalidArgumentError("workload has no \"requests\" array");
  }
  out.clear();
  for (const JsonValue& entry : requests->as_array()) {
    const JsonValue* recorded = entry.Find("request");
    if (recorded == nullptr || !recorded->is_object()) {
      return InvalidArgumentError("request entry without \"request\"");
    }
    SolveRequest request;
    request.key = StringOr(entry, "key", "");
    request.reference = NumberOr(entry, "reference_cost", kNoReference);
    request.anneals = static_cast<long>(NumberOr(entry, "anneals", 0));
    StatusOr<CliRequest> source = ParseCliRequest(recorded->Serialize());
    VPART_RETURN_IF_ERROR(source.status());
    request.source = std::move(*source);
    StatusOr<Instance> instance = LoadCliInstance(request.source);
    VPART_RETURN_IF_ERROR(instance.status());
    request.vpi = WriteInstanceText(*instance);
    StatusOr<std::string> text =
        RenamedRequestText(*recorded, request.vpi, MixSeed(seed, out.size()));
    VPART_RETURN_IF_ERROR(text.status());
    request.text = std::move(*text);
    out.push_back(std::move(request));
  }
  return Status::Ok();
}

/// One request the way vpart_cli runs it: parse, load the instance,
/// AdviseWithHooks under the request's deadline, serialize the response.
Sample RunSolveRequest(const SolveRequest& request) {
  Sample s;
  s.key = request.key;
  s.cls = "solve";
  s.reference = request.reference;
  const double start = NowSeconds();
  StatusOr<CliRequest> cli = ParseCliRequest(request.text);
  if (!cli.ok()) {
    s.error = cli.status().ToString();
    return s;
  }
  StatusOr<Instance> instance = LoadCliInstance(*cli);
  if (!instance.ok()) {
    s.error = instance.status().ToString();
    return s;
  }
  AdviseHooks hooks;
  hooks.token = CancellationToken::WithDeadline(cli->request.time_limit_seconds);
  std::atomic<long> anneals{0};
  if (request.anneals > 0) {
    hooks.progress = [&anneals](const ProgressEvent& event) {
      if (event.phase == kSolverSa) anneals.fetch_add(1);
    };
  }
  const double advise_start = NowSeconds();
  StatusOr<AdviseResponse> response =
      AdviseWithHooks(*instance, cli->request, hooks);
  s.advise_s = NowSeconds() - advise_start;
  if (!response.ok()) {
    s.error = response.status().ToString();
    return s;
  }
  s.response_bytes = static_cast<long>(
      AdviseResponseToJson(*instance, *response, cli->emit_partitioning, {})
          .Serialize()
          .size());
  s.latency_s = NowSeconds() - start;

  s.cost = response->result.cost;
  s.nodes = response->bnb_nodes;
  s.lp_solves = response->lp_stats.lp_solves;
  s.iterations = response->lp_stats.total_iterations();
  s.factorizations = response->lp_stats.factorizations;
  s.anneals = anneals.load();
  if (!response->certified) {
    s.error = "response not certified";
  } else if (request.anneals > 0) {
    if (s.anneals != request.anneals) {
      s.error = "anneal count " + std::to_string(s.anneals) + " != " +
                std::to_string(request.anneals);
    } else if (!std::isnan(request.reference) &&
               s.cost > request.reference &&
               !SameCost(s.cost, request.reference)) {
      s.error = "SA cost above its seeded reference";
    }
  } else if (!response->result.proven_optimal) {
    s.error = "ILP answer not proven optimal";
  } else if (!std::isnan(request.reference) &&
             !SameCost(s.cost, request.reference)) {
    s.error = "objective differs from the proven reference";
  }
  s.ok = s.error.empty();
  return s;
}

/// Runs `request` once untraced (into `untraced`) and once as a traced
/// replay (into out.layers); even `index` replays first.
void TracedPair(const SolveRequest& request, long index,
                std::vector<Sample>& untraced, RunOutput& out) {
  if (index % 2 == 0) {
    out.layers.push_back(
        ReplayRequest(request.key, request.text, index, out.spans));
  }
  untraced.push_back(RunSolveRequest(request));
  if (index % 2 != 0) {
    out.layers.push_back(
        ReplayRequest(request.key, request.text, index, out.spans));
  }
}

/// Runs whole cycles over `requests` until `budget` seconds have passed:
/// `set_up` before each cycle, then every request in a seeded order.
template <typename SetUp, typename Fn>
Status RunCycles(std::vector<SolveRequest>& requests, Rng& rng, double budget,
                 SetUp&& set_up, Fn&& per_request) {
  const double start = NowSeconds();
  do {
    VPART_RETURN_IF_ERROR(set_up());
    std::vector<size_t> order(requests.size());
    std::iota(order.begin(), order.end(), size_t{0});
    rng.Shuffle(order);
    for (size_t i : order) per_request(requests[i]);
  } while (NowSeconds() - start < budget);
  return Status::Ok();
}

// ------------------------------------------------------------ serve ------

struct ServeStep {
  int problem = 0;
  std::string cls;       // fresh, exact, renamed, shifted
  std::string expected;  // cache kind the daemon must report
  std::string text;
};

/// One connection's share of an episode. A problem is one distinct
/// instance (up to renaming); its first send is a miss or a shape hit.
struct ConnStream {
  std::vector<ServeStep> steps;
  std::vector<std::string> problem_vpi;   // un-renamed instance text
  std::vector<std::string> problem_text;  // the request first sent
};

struct ServeSpec {
  JsonValue request;  // recorded request without an instance
  RandomInstanceParams params;  // the instance class, seeded per instance
  std::vector<std::string> pattern;
  int repeats = 0;  // of the pattern, per connection and episode
  int connections = 0;
  int workers = 0;
  /// Fresh instances per connection and episode.
  int fresh() const {
    return repeats * static_cast<int>(std::count(pattern.begin(),
                                                 pattern.end(), "fresh"));
  }
};

Status ParseServeSpec(const JsonValue& spec, ServeSpec& out) {
  const JsonValue* request = spec.Find("request");
  const JsonValue* pattern = spec.Find("pattern");
  if (request == nullptr || !request->is_object() || pattern == nullptr ||
      !pattern->is_array()) {
    return InvalidArgumentError("serve workload needs request and pattern");
  }
  out.request = *request;
  StatusOr<RandomInstanceParams> params =
      ParseNamedInstanceParams(StringOr(spec, "instance", ""));
  VPART_RETURN_IF_ERROR(params.status());
  out.params = *params;
  // Each fresh instance is shifted at most once, so every shape has one
  // cache entry when a shifted request looks it up and the seeded solve
  // starts from the same entry on every run.
  bool shiftable = false;
  for (const JsonValue& cls : pattern->as_array()) {
    if (!cls.is_string()) return InvalidArgumentError("bad pattern entry");
    out.pattern.push_back(cls.as_string());
    if (cls.as_string() == "fresh") shiftable = true;
    if (cls.as_string() == "shifted") {
      if (!shiftable) {
        return InvalidArgumentError("'shifted' must follow its own 'fresh'");
      }
      shiftable = false;
    }
  }
  out.repeats = static_cast<int>(NumberOr(spec, "repeats_per_episode", 0));
  out.connections = static_cast<int>(NumberOr(spec, "connections", 0));
  out.workers = static_cast<int>(NumberOr(spec, "workers", 0));
  if (out.repeats < 1 || out.connections < 1 || out.workers < 1 ||
      out.pattern.empty() || out.pattern[0] != "fresh") {
    return InvalidArgumentError("bad serve workload parameters");
  }
  return Status::Ok();
}

uint64_t ConnSeed(uint64_t seed, int episode, int conn) {
  return MixSeed(MixSeed(seed, static_cast<uint64_t>(episode)),
                 static_cast<uint64_t>(conn));
}

/// The `.vpi` texts of one connection's fresh instances in one episode,
/// generated from the run seed. With the daemon start, this is all the
/// timed set-up of an episode does.
std::vector<std::string> GenerateFreshInstances(const ServeSpec& spec,
                                                uint64_t seed, int episode,
                                                int conn) {
  Rng rng(MixSeed(ConnSeed(seed, episode, conn), 1));
  RandomInstanceParams params = spec.params;
  std::vector<std::string> out;
  for (int i = 0; i < spec.fresh(); ++i) {
    params.seed = rng.Next();
    out.push_back(WriteInstanceText(MakeRandomInstance(params)));
  }
  return out;
}

/// Builds one connection's stream of one episode around its fresh
/// instances: renamings, frequency shifts and the repeat choices all come
/// from the run seed.
StatusOr<ConnStream> MakeConnStream(const ServeSpec& spec, uint64_t seed,
                                    int episode, int conn,
                                    const std::vector<std::string>& fresh) {
  Rng rng(MixSeed(ConnSeed(seed, episode, conn), 2));
  ConnStream stream;
  size_t next_fresh = 0;
  auto add_problem = [&](std::string vpi) -> StatusOr<int> {
    StatusOr<std::string> text =
        RenamedRequestText(spec.request, vpi, rng.Next());
    VPART_RETURN_IF_ERROR(text.status());
    stream.problem_text.push_back(std::move(*text));
    stream.problem_vpi.push_back(std::move(vpi));
    return static_cast<int>(stream.problem_vpi.size()) - 1;
  };
  for (int r = 0; r < spec.repeats; ++r) {
    for (const std::string& cls : spec.pattern) {
      ServeStep step;
      step.cls = cls;
      StatusOr<int> problem = 0;
      if (cls == "fresh") {
        problem = add_problem(fresh[next_fresh++]);
        step.expected = "miss";
      } else if (cls == "shifted") {
        problem =
            add_problem(ShiftFrequencies(fresh[next_fresh - 1], rng.Next()));
        step.expected = "shape";
      } else if (cls == "exact" || cls == "renamed") {
        problem = static_cast<int>(rng.NextBounded(stream.problem_vpi.size()));
        step.expected = "exact";
      } else {
        return InvalidArgumentError("unknown serve class " + cls);
      }
      VPART_RETURN_IF_ERROR(problem.status());
      step.problem = *problem;
      if (cls == "renamed") {
        StatusOr<std::string> text = RenamedRequestText(
            spec.request, stream.problem_vpi[step.problem], rng.Next());
        VPART_RETURN_IF_ERROR(text.status());
        step.text = std::move(*text);
      } else {
        step.text = stream.problem_text[step.problem];
      }
      stream.steps.push_back(std::move(step));
    }
  }
  return stream;
}

std::string ProblemKey(int conn, int problem) {
  return "c" + std::to_string(conn) + "p" + std::to_string(problem);
}

/// Checks one daemon reply against the step that produced it.
void CheckReply(const std::string& reply, const ServeStep& step,
                std::vector<double>& first_cost, Sample& s) {
  StatusOr<JsonValue> doc = JsonValue::Parse(reply);
  if (!doc.ok()) {
    s.error = "unparsable reply";
    return;
  }
  if (const JsonValue* error = doc->Find("error")) {
    s.error = "daemon error: " + error->Serialize();
    return;
  }
  const JsonValue* serve = doc->Find("serve");
  s.cache = serve != nullptr ? StringOr(*serve, "cache", "") : "";
  s.cost = NumberOr(*doc, "cost", kNoReference);
  s.server_s = NumberOr(*doc, "seconds", 0);
  const JsonValue* certified = doc->Find("certified");
  const JsonValue* proven = doc->Find("proven_optimal");
  if (const JsonValue* telemetry = doc->Find("telemetry")) {
    if (const JsonValue* mip = telemetry->Find("mip")) {
      s.nodes = static_cast<long>(NumberOr(*mip, "bnb_nodes", 0));
      s.lp_solves = static_cast<long>(NumberOr(*mip, "lp_solves", 0));
      s.iterations = static_cast<long>(NumberOr(*mip, "total_iterations", 0));
      s.factorizations = static_cast<long>(NumberOr(*mip, "factorizations", 0));
    }
  }
  double& first = first_cost[static_cast<size_t>(step.problem)];
  if (certified == nullptr || !certified->is_bool() || !certified->as_bool()) {
    s.error = "reply not certified";
  } else if (s.cache != s.expected_cache) {
    s.error = "cache kind '" + s.cache + "', expected '" + s.expected_cache + "'";
  } else if (proven == nullptr || !proven->is_bool() || !proven->as_bool()) {
    s.error = "ILP answer not proven optimal";
  } else if (!std::isnan(first) && !SameCost(s.cost, first)) {
    s.error = "repeat answered with a different objective";
  }
  if (std::isnan(first)) first = s.cost;
  s.ok = s.error.empty();
}

/// One client thread's closed loop over its connection.
void DriveConnection(const std::string& socket, const ConnStream& stream,
                     int conn, int episode, std::vector<Sample>& out) {
  std::vector<double> first_cost(stream.problem_text.size(), kNoReference);
  StatusOr<ServeClient> client = ServeClient::Connect(socket);
  for (const ServeStep& step : stream.steps) {
    Sample s;
    s.key = ProblemKey(conn, step.problem);
    s.cls = step.cls;
    s.episode = episode;
    s.expected_cache = step.expected;
    if (!client.ok()) {
      s.error = client.status().ToString();
      out.push_back(std::move(s));
      continue;
    }
    const double start = NowSeconds();
    StatusOr<std::string> reply = client->Roundtrip(step.text);
    s.latency_s = NowSeconds() - start;
    if (!reply.ok()) {
      s.error = reply.status().ToString();
    } else {
      s.response_bytes = static_cast<long>(reply->size());
      CheckReply(*reply, step, first_cost, s);
    }
    out.push_back(std::move(s));
  }
}

/// Starts an in-process daemon on a fresh socket under `out_dir`.
StatusOr<std::unique_ptr<AdviseServer>> StartDaemon(const std::string& out_dir,
                                                    int workers, int index) {
  AdviseServerOptions options;
  options.socket_path = out_dir + "/serve_" + std::to_string(::getpid()) +
                        "_" + std::to_string(index) + ".sock";
  options.num_workers = workers;
  auto server = std::make_unique<AdviseServer>(std::move(options));
  VPART_RETURN_IF_ERROR(server->Start());
  return server;
}

}  // namespace

Status RunSolveWorkload(const JsonValue& spec, const RunOptions& options,
                        RunOutput& out) {
  std::vector<SolveRequest> requests;
  VPART_RETURN_IF_ERROR(PrepareSolveRequests(spec, options.seed, requests));
  // The timed set-up generates every request's instance through the library
  // (LoadCliInstance, WriteInstanceText). It is repeated before every cycle,
  // so its median samples the whole run as the request metrics do; its time
  // stays out of loop_s and cpu_s. The renaming was done once, above, from
  // the same text, which each set-up checks it regenerates.
  double setup_wall = 0, setup_cpu = 0;
  auto set_up = [&]() -> Status {
    const double cpu = ProcessCpuSeconds();
    const double wall = NowSeconds();
    for (int rep = 0; rep < kSetUpRepeats; ++rep) {
      std::vector<std::string> generated;
      generated.reserve(requests.size());
      const double start = NowSeconds();
      for (const SolveRequest& request : requests) {
        StatusOr<Instance> instance = LoadCliInstance(request.source);
        VPART_RETURN_IF_ERROR(instance.status());
        generated.push_back(WriteInstanceText(*instance));
      }
      out.setup_s.push_back(NowSeconds() - start);
      for (size_t i = 0; i < requests.size(); ++i) {
        if (generated[i] != requests[i].vpi) {
          return InternalError("instance of " + requests[i].key +
                               " generated differently on a repeat");
        }
      }
    }
    setup_wall += NowSeconds() - wall;
    setup_cpu += ProcessCpuSeconds() - cpu;
    return Status::Ok();
  };

  // Traced runs pair every replay with an untraced run of the same request,
  // alternating which goes first, so the two are measured side by side.
  Rng order(MixSeed(options.seed, 0x6f72646572ull));
  long index = 0;
  const double cpu_start = ProcessCpuSeconds();
  const double start = NowSeconds();
  VPART_RETURN_IF_ERROR(RunCycles(
      requests, order, options.seconds, set_up, [&](const SolveRequest& r) {
        if (options.trace) TracedPair(r, index++, out.samples, out);
        else out.samples.push_back(RunSolveRequest(r));
      }));
  out.loop_s = NowSeconds() - start - setup_wall;
  out.cpu_s = ProcessCpuSeconds() - cpu_start - setup_cpu;
  return Status::Ok();
}

Status RunServeWorkload(const JsonValue& json_spec, const RunOptions& options,
                        RunOutput& out) {
  ServeSpec spec;
  VPART_RETURN_IF_ERROR(ParseServeSpec(json_spec, spec));

  // Episodes: each generates its fresh instances and starts a fresh daemon
  // (empty cache) — the timed set-up — then builds and runs the streams, so
  // every episode does the same kind of work and memory stays bounded. Only
  // the streams count towards loop_s and cpu_s.
  std::vector<ConnStream> episode0;
  std::unique_ptr<AdviseServer> daemon;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<std::vector<std::string>> fresh;
  for (int episode = 0; out.loop_s < budget; ++episode) {
    for (int rep = 0; rep < kSetUpRepeats; ++rep) {
      daemon.reset();
      fresh.clear();
      const double setup_start = NowSeconds();
      for (int c = 0; c < spec.connections; ++c) {
        fresh.push_back(GenerateFreshInstances(spec, options.seed, episode, c));
      }
      StatusOr<std::unique_ptr<AdviseServer>> started = StartDaemon(
          options.out_dir, spec.workers, episode * kSetUpRepeats + rep);
      VPART_RETURN_IF_ERROR(started.status());
      daemon = std::move(*started);
      out.setup_s.push_back(NowSeconds() - setup_start);
    }
    std::vector<ConnStream> streams;
    for (int c = 0; c < spec.connections; ++c) {
      StatusOr<ConnStream> stream =
          MakeConnStream(spec, options.seed, episode, c, fresh[c]);
      VPART_RETURN_IF_ERROR(stream.status());
      streams.push_back(std::move(*stream));
    }
    if (episode == 0) episode0 = streams;

    std::vector<std::vector<Sample>> per_conn(streams.size());
    const double cpu_start = ProcessCpuSeconds();
    const double start = NowSeconds();
    {
      std::vector<std::thread> clients;
      for (size_t c = 0; c < streams.size(); ++c) {
        clients.emplace_back([&, c] {
          DriveConnection(daemon->socket_path(), streams[c],
                          static_cast<int>(c), episode, per_conn[c]);
        });
      }
      for (std::thread& client : clients) client.join();
    }
    out.loop_s += NowSeconds() - start;
    out.cpu_s += ProcessCpuSeconds() - cpu_start;
    for (std::vector<Sample>& samples : per_conn) {
      for (Sample& s : samples) out.samples.push_back(std::move(s));
    }
  }
  daemon.reset();

  // Reference answers: every problem of the first episode solved cold,
  // in-process, without the daemon. Served objectives must match them.
  std::vector<std::pair<std::string, std::string>> problems;
  for (size_t c = 0; c < episode0.size(); ++c) {
    for (size_t p = 0; p < episode0[c].problem_text.size(); ++p) {
      problems.emplace_back(
          ProblemKey(static_cast<int>(c), static_cast<int>(p)),
          episode0[c].problem_text[p]);
    }
  }
  std::unordered_map<std::string, Sample> reference;
  for (const auto& [key, text] : problems) {
    SolveRequest request;
    request.key = key;
    request.text = text;
    reference[key] = RunSolveRequest(request);
    out.cold_baseline.push_back(reference[key]);
  }
  // Problems first answered cold must match their reference exactly. A
  // shape-seeded solve starts from another incumbent and may prove another
  // layout optimal in the MIP whose objective (4) differs from the cold
  // answer's (cold solves of one instance at mip_gap 1e-3 and 1e-9 already
  // do), so its cost only enters advice_cost_ratio, and must repeat across
  // runs with the counts.
  std::unordered_map<std::string, bool> seeded;
  for (size_t c = 0; c < episode0.size(); ++c) {
    for (const ServeStep& step : episode0[c].steps) {
      if (step.cls == "shifted") {
        seeded[ProblemKey(static_cast<int>(c), step.problem)] = true;
      }
    }
  }
  for (Sample& s : out.samples) {
    if (s.episode != 0 || !s.ok) continue;
    const Sample& cold = reference[s.key];
    s.reference = cold.cost;
    if (!cold.ok) {
      s.ok = false;
      s.error = "reference solve failed: " + cold.error;
    } else if (!seeded[s.key] && !SameCost(s.cost, s.reference)) {
      s.ok = false;
      s.error = "served objective differs from the cold in-process solve";
    }
  }

  if (options.trace) {
    const double start = NowSeconds();
    long index = 0;
    do {
      for (const auto& [key, text] : problems) {
        SolveRequest request;
        request.key = key;
        request.text = text;
        TracedPair(request, index++, out.cold_baseline, out);
      }
    } while (NowSeconds() - start < options.seconds - budget);
  }
  return Status::Ok();
}

}  // namespace vpart::perfbench
