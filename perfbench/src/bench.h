// Shared records of vpart_perfbench: per-request samples, per-layer
// replay samples and the in-memory span recorder of traced runs.
#ifndef VPART_PERFBENCH_BENCH_H_
#define VPART_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "api/json.h"

namespace vpart::perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads, user + system) in seconds.
double ProcessCpuSeconds();

constexpr double kNoReference = std::numeric_limits<double>::quiet_NaN();

/// One request of an untraced (end-to-end) run.
struct Sample {
  std::string key;    // recorded request key, or serve problem id
  std::string cls;    // "solve", or the serve class (fresh/exact/...)
  int episode = 0;    // serve_mix episode; 0 elsewhere
  double latency_s = 0;  // what the caller waits: request text to reply
  double advise_s = 0;   // in-process Advise() share (solve workloads)
  double server_s = 0;   // response "seconds" (serve replies)
  bool ok = false;
  std::string error;
  std::string expected_cache;  // serve: cache kind the class must get
  std::string cache;           // serve: cache kind the reply reported
  double cost = 0;
  double reference = kNoReference;
  long nodes = 0, lp_solves = 0, iterations = 0, factorizations = 0;
  long anneals = 0;
  long response_bytes = 0;

  JsonValue ToJson() const;
};

/// One traced replay of a request, layer by layer, in Advise() order.
struct LayerSample {
  std::string key;
  // Seconds per layer (each a leaf span under the request's replay span).
  double parse_s = 0, fingerprint_s = 0, grouping_s = 0, precompute_s = 0,
         warm_start_s = 0, formulation_s = 0, bnb_s = 0, sa_s = 0,
         price_s = 0, certify_s = 0, json_s = 0, root_lp_s = 0;
  /// Duration of the span covering the layers Advise() itself runs.
  double replay_s = 0;
  long attributes = 0, groups = 0;
  long formulation_vars = 0, formulation_rows = 0, formulation_nnz = 0;
  long root_iterations = 0, root_factorizations = 0;
  long nodes = 0, lp_solves = 0, iterations = 0, factorizations = 0;
  long warm_starts = 0, warm_start_failures = 0;
  double lp_seconds = 0;
  long sa_iterations = 0, sa_accepted = 0, anneals = 0;
  long response_bytes = 0;
  double cost = 0;
  bool proven_optimal = false;
  bool certified = false;
  std::string error;

  JsonValue ToJson() const;
};

/// Spans kept in memory during a traced run and written out at its end
/// (Chrome trace-event JSON).
class SpanRecorder {
 public:
  /// Opens a span; returns its id. `parent` is -1 for a request root.
  int Open(const std::string& name, int parent, long request);
  /// Closes the span and returns its duration in seconds.
  double Close(int id);
  JsonValue ToChromeTrace() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    long request = 0;
    double start = 0;
    double end = 0;
  };
  std::vector<Span> spans_;
};

}  // namespace vpart::perfbench

#endif  // VPART_PERFBENCH_BENCH_H_
