// Layer-by-layer replay of one advise request through the public functions
// Advise() calls, in the order it calls them, each wrapped in a span.
#ifndef VPART_PERFBENCH_REPLAY_H_
#define VPART_PERFBENCH_REPLAY_H_

#include <string>

#include "bench.h"

namespace vpart::perfbench {

/// Replays the request document `text` (an "ilp" or "sa" request):
/// ParseCliRequest/LoadCliInstance, FingerprintInstance, then what Advise()
/// runs — BuildAttributeGrouping, the CostModelRegistry build, the solver
/// (SA warm start, BuildIlpFormulation and SolveMip for "ilp"; SolveWithSa
/// for "sa"), pricing and CertifyResponse — then AdviseResponseToJson.
/// For "ilp" the root relaxation is also solved once more on its own with
/// SimplexSolver::Solve, outside the Advise() span, to time the root LP.
LayerSample ReplayRequest(const std::string& key, const std::string& text,
                          long request_index, SpanRecorder& spans);

}  // namespace vpart::perfbench

#endif  // VPART_PERFBENCH_REPLAY_H_
