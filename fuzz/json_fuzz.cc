// Fuzz harness over the byte-level inputs: the raw JSON document parser
// (JsonValue::Parse), serialization of whatever parsed, the full
// request-schema path (ParseCliRequest), the distributed wire decoder a
// worker's table result goes through (DecodeAdvisorResult), and the `.vpi`
// instance parser (ParseInstanceText) that dist workers run on instance
// text straight off the wire. Every input goes through every parser, so the
// corpus mixes JSON and `.vpi` seeds. The contract under test: arbitrary
// bytes must produce a Status or a value — never a crash, hang, overflow,
// or sanitizer report.
//
// Built two ways (see CMakeLists.txt):
//   * json_fuzz_replay (always): a plain main() that replays every file in
//     the given corpus directories/files — wired into ctest so the corpus
//     doubles as a regression suite on toolchains without libFuzzer.
//   * json_fuzz (VPART_BUILD_FUZZERS=ON, clang): the same body driven by
//     libFuzzer via LLVMFuzzerTestOneInput.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "api/json.h"
#include "api/request_json.h"
#include "dist/wire_messages.h"
#include "engine/batch_advisor.h"
#include "instances/tpcc.h"
#include "workload/instance_io.h"

namespace {

/// The subinstance table results decode against: TPC-C's first table, as
/// the coordinator would hold it after SplitInstanceByTable.
const vpart::Instance& FuzzTable() {
  static const vpart::Instance table = [] {
    auto subs = vpart::SplitInstanceByTable(vpart::MakeTpccInstance());
    if (!subs.ok() || subs->empty()) std::abort();
    return std::move(subs->front().instance);
  }();
  return table;
}

void FuzzOne(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  // Raw document grammar: parse, and round-trip anything that parsed.
  vpart::StatusOr<vpart::JsonValue> doc = vpart::JsonValue::Parse(text);
  if (doc.ok()) {
    (void)doc->Serialize(2);
    (void)doc->Serialize(0);
    // Distributed-wire decoding: what a coordinator does with a hostile
    // worker's frame. The "advisor" payload is tried whole-document too,
    // so corpus entries can target the decoder directly.
    (void)vpart::DistMessageType(*doc);
    (void)vpart::DecodeAdvisorResult(FuzzTable(), *doc);
    if (const vpart::JsonValue* advisor = doc->Find("advisor")) {
      (void)vpart::DecodeAdvisorResult(FuzzTable(), *advisor);
    }
  }
  // Schema layer on top: typed readers, unknown-key checks, enum parses.
  (void)vpart::ParseCliRequest(text);
  // The `.vpi` instance text format (workload/instance_io.h).
  (void)vpart::ParseInstanceText(text);
}

}  // namespace

#ifdef VPART_FUZZ_LIBFUZZER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#else  // replay driver

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

bool ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.string().c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  FuzzOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_fuzz_replay <corpus-dir-or-file>...\n");
    return 2;
  }
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      for (const auto& file : files) {
        if (!ReplayFile(file)) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(path)) return 1;
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "no corpus inputs found\n");
    return 1;
  }
  std::printf("replayed %d corpus inputs without incident\n", replayed);
  return 0;
}

#endif  // VPART_FUZZ_LIBFUZZER
