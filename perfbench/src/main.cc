// vpart_perfbench: runs one benchmark workload for a fixed time and prints
// its raw measurements (one JSON document) for perfbench/run.py, which
// turns them into metrics.
//
//   vpart_perfbench --spec perfbench/workloads.json --workload NAME
//                   --seed N --seconds S --trace 0|1 --out-dir DIR
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "api/json.h"
#include "workloads.h"

namespace vpart::perfbench {
namespace {

int Usage(const std::string& message) {
  std::cerr << "vpart_perfbench: " << message
            << "\nusage: vpart_perfbench --spec FILE --workload NAME "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

JsonValue BuildMeta() {
  JsonValue meta = JsonValue::MakeObject();
  meta.Set("build_type", VPART_PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  meta.Set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  meta.Set("compiler", "gcc " __VERSION__);
#else
  meta.Set("compiler", "unknown");
#endif
  meta.Set("host_cores", static_cast<long>(std::thread::hardware_concurrency()));
  return meta;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  // Debug builds certify every response and skip optimization: they would
  // measure a different program.
  (void)argc;
  (void)argv;
  return Usage("refusing to run a build without NDEBUG (use Release)");
#else
  std::string spec_path, workload, out_dir;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--spec") {
      spec_path = value;
    } else if (arg == "--workload") {
      workload = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 3600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (spec_path.empty() || workload.empty() || out_dir.empty() ||
      !have_seed || !have_seconds || !have_trace) {
    return Usage("missing or malformed arguments");
  }
  options.out_dir = out_dir;

  std::ifstream in(spec_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<JsonValue> spec = JsonValue::Parse(buffer.str());
  if (!in || !spec.ok()) return Usage("cannot read spec " + spec_path);
  const JsonValue* workloads = spec->Find("workloads");
  const JsonValue* entry =
      workloads != nullptr ? workloads->Find(workload) : nullptr;
  if (entry == nullptr) return Usage("unknown workload " + workload);
  const JsonValue* kind = entry->Find("kind");

  RunOutput out;
  Status status = InvalidArgumentError("workload without a known kind");
  if (kind != nullptr && kind->is_string() && kind->as_string() == "solve") {
    status = RunSolveWorkload(*entry, options, out);
  } else if (kind != nullptr && kind->is_string() &&
             kind->as_string() == "serve") {
    status = RunServeWorkload(*entry, options, out);
  }
  if (!status.ok()) {
    std::cerr << "vpart_perfbench: " << status.ToString() << "\n";
    return 1;
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("meta", BuildMeta());
  JsonValue setup = JsonValue::MakeArray();
  for (double s : out.setup_s) setup.Append(s);
  doc.Set("setup_s", std::move(setup));
  doc.Set("loop_s", out.loop_s);
  doc.Set("cpu_s", out.cpu_s);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  doc.Set("peak_rss_kb", static_cast<long>(usage.ru_maxrss));
  auto append_all = [&doc](const char* name, const auto& items) {
    JsonValue array = JsonValue::MakeArray();
    for (const auto& item : items) array.Append(item.ToJson());
    doc.Set(name, std::move(array));
  };
  append_all("samples", out.samples);
  append_all("layers", out.layers);
  append_all("cold_baseline", out.cold_baseline);
  if (options.trace) {
    const std::string path = out_dir + "/trace_" + workload + "_seed" +
                             std::to_string(options.seed) + ".json";
    std::ofstream trace(path);
    trace << out.spans.ToChromeTrace().Serialize();
    if (!trace) {
      std::cerr << "vpart_perfbench: cannot write " << path << "\n";
      return 1;
    }
    doc.Set("trace_file", path);
  }
  std::cout << doc.Serialize() << "\n";
  return 0;
#endif
}

}  // namespace
}  // namespace vpart::perfbench

int main(int argc, char** argv) { return vpart::perfbench::Main(argc, argv); }
