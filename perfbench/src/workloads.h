// The benchmark's two workload kinds:
//  * "solve" — recorded advise requests sent in-process in a closed loop,
//    the way vpart_cli runs one (parse, load, Advise, serialize);
//  * "serve" — a seeded request stream sent to an in-process AdviseServer.
#ifndef VPART_PERFBENCH_WORKLOADS_H_
#define VPART_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.h"
#include "bench.h"
#include "util/status.h"

namespace vpart::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for sockets and the trace file.
  std::string out_dir;
};

/// Everything one run measured; main.cc serializes it for run.py.
struct RunOutput {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<Sample> samples;  // untraced requests
  double loop_s = 0;            // wall of the measured loop
  double cpu_s = 0;             // process CPU over the measured loop
  std::vector<LayerSample> layers;  // traced replays (--trace 1)
  /// serve_mix: untraced in-process cold solves of the first episode's
  /// problems — the reference answers, the base of
  /// serve.seeded_iteration_ratio, and the untraced half of traced pairs.
  std::vector<Sample> cold_baseline;
  SpanRecorder spans;
};

Status RunSolveWorkload(const JsonValue& spec, const RunOptions& options,
                        RunOutput& out);
Status RunServeWorkload(const JsonValue& spec, const RunOptions& options,
                        RunOutput& out);

}  // namespace vpart::perfbench

#endif  // VPART_PERFBENCH_WORKLOADS_H_
