#include "bench.h"

#include <ctime>

namespace vpart::perfbench {

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

JsonValue Sample::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("key", key);
  out.Set("cls", cls);
  out.Set("episode", episode);
  out.Set("latency_s", latency_s);
  out.Set("advise_s", advise_s);
  out.Set("server_s", server_s);
  out.Set("ok", ok);
  if (!error.empty()) out.Set("error", error);
  if (!expected_cache.empty()) {
    out.Set("expected_cache", expected_cache);
    out.Set("cache", cache);
  }
  out.Set("cost", cost);
  // NaN serializes as null: no recorded reference for this request.
  out.Set("reference", reference);
  out.Set("nodes", nodes);
  out.Set("lp_solves", lp_solves);
  out.Set("iterations", iterations);
  out.Set("factorizations", factorizations);
  out.Set("anneals", anneals);
  out.Set("response_bytes", response_bytes);
  return out;
}

JsonValue LayerSample::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("key", key);
  const std::pair<const char*, double> seconds[] = {
      {"parse_s", parse_s},         {"fingerprint_s", fingerprint_s},
      {"grouping_s", grouping_s},   {"precompute_s", precompute_s},
      {"warm_start_s", warm_start_s}, {"formulation_s", formulation_s},
      {"bnb_s", bnb_s},             {"sa_s", sa_s},
      {"price_s", price_s},         {"certify_s", certify_s},
      {"json_s", json_s},           {"root_lp_s", root_lp_s},
      {"replay_s", replay_s},       {"lp_seconds", lp_seconds}};
  for (const auto& [name, value] : seconds) out.Set(name, value);
  const std::pair<const char*, long> counts[] = {
      {"attributes", attributes},
      {"groups", groups},
      {"formulation_vars", formulation_vars},
      {"formulation_rows", formulation_rows},
      {"formulation_nnz", formulation_nnz},
      {"root_iterations", root_iterations},
      {"root_factorizations", root_factorizations},
      {"nodes", nodes},
      {"lp_solves", lp_solves},
      {"iterations", iterations},
      {"factorizations", factorizations},
      {"warm_starts", warm_starts},
      {"warm_start_failures", warm_start_failures},
      {"sa_iterations", sa_iterations},
      {"sa_accepted", sa_accepted},
      {"anneals", anneals},
      {"response_bytes", response_bytes}};
  for (const auto& [name, value] : counts) out.Set(name, value);
  out.Set("cost", cost);
  out.Set("proven_optimal", proven_optimal);
  out.Set("certified", certified);
  if (!error.empty()) out.Set("error", error);
  return out;
}

int SpanRecorder::Open(const std::string& name, int parent, long request) {
  spans_.push_back(Span{name, parent, request, NowSeconds(), 0.0});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::Close(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds();
  return span.end - span.start;
}

JsonValue SpanRecorder::ToChromeTrace() const {
  JsonValue events = JsonValue::MakeArray();
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) continue;  // left open by a failed request
    JsonValue event = JsonValue::MakeObject();
    event.Set("name", span.name);
    event.Set("ph", "X");
    event.Set("pid", 1);
    event.Set("tid", 1);
    event.Set("ts", 1e6 * (span.start - origin));
    event.Set("dur", 1e6 * (span.end - span.start));
    JsonValue args = JsonValue::MakeObject();
    args.Set("request", span.request);
    args.Set("span", static_cast<long>(i));
    args.Set("parent", span.parent);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("traceEvents", std::move(events));
  return out;
}

}  // namespace vpart::perfbench
