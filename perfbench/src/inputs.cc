#include "inputs.h"

#include <sstream>
#include <unordered_map>
#include <vector>

#include "serve/fingerprint.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/instance_io.h"

namespace vpart::perfbench {
namespace {

/// Stable new names per entity class, numbered in order of first use.
class Renamer {
 public:
  Renamer(const char* prefix, uint64_t salt)
      : prefix_(prefix),
        suffix_(StrFormat("_%06llx",
                          static_cast<unsigned long long>(salt & 0xffffff))) {}

  const std::string& Get(const std::string& name) {
    auto it = names_.find(name);
    if (it != names_.end()) return it->second;
    const std::string fresh =
        prefix_ + std::to_string(names_.size()) + suffix_;
    return names_.emplace(name, fresh).first->second;
  }

 private:
  std::string prefix_;
  std::string suffix_;
  std::unordered_map<std::string, std::string> names_;
};

/// The recorded request with its "instance" member replaced by `vpi` text.
std::string WithInstanceText(const JsonValue& recorded,
                             const std::string& vpi) {
  JsonValue request = recorded;
  JsonValue instance = JsonValue::MakeObject();
  instance.Set("text", vpi);
  request.Set("instance", std::move(instance));
  return request.Serialize();
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string RenameInstanceText(const std::string& vpi, uint64_t salt) {
  Renamer instances("inst", salt), tables("tb", salt), attrs("at", salt),
      txns("tx", salt), queries("q", salt);
  // Attribute names are scoped by table; key them by the qualified name.
  auto attr = [&](const std::string& table, const std::string& name) {
    return attrs.Get(table + "." + name);
  };
  std::istringstream in(vpi);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> tok = SplitWhitespace(line);
    if (tok.empty() || tok[0][0] == '#') {
      out << line << "\n";
      continue;
    }
    const std::string& kind = tok[0];
    if (kind == "instance" && tok.size() == 2) {
      tok[1] = instances.Get(tok[1]);
    } else if (kind == "table" && tok.size() == 2) {
      tok[1] = tables.Get(tok[1]);
    } else if (kind == "attr" && tok.size() == 4) {
      tok[2] = attr(tok[1], tok[2]);
      tok[1] = tables.Get(tok[1]);
    } else if (kind == "txn" && tok.size() == 2) {
      tok[1] = txns.Get(tok[1]);
    } else if (kind == "query" && tok.size() == 5) {
      tok[1] = txns.Get(tok[1]);
      tok[2] = queries.Get(tok[2]);
    } else if (kind == "rows" && tok.size() == 4) {
      tok[1] = queries.Get(tok[1]);
      tok[2] = tables.Get(tok[2]);
    } else if (kind == "ref") {
      tok[1] = queries.Get(tok[1]);
      for (size_t i = 2; i < tok.size(); ++i) {
        const size_t dot = tok[i].find('.');
        if (dot == std::string::npos) continue;  // the parser rejects it
        const std::string table = tok[i].substr(0, dot);
        tok[i] = tables.Get(table) + "." + attr(table, tok[i].substr(dot + 1));
      }
    }
    out << JoinStrings(tok, " ") << "\n";
  }
  return out.str();
}

std::string ShiftFrequencies(const std::string& vpi, uint64_t seed) {
  Rng rng(seed);
  std::istringstream in(vpi);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> tok = SplitWhitespace(line);
    double frequency = 0;
    if (tok.size() == 5 && tok[0] == "query" &&
        ParseDouble(tok[4], &frequency)) {
      tok[4] = StrFormat("%.17g", frequency * (0.5 + 1.5 * rng.NextDouble()));
      out << JoinStrings(tok, " ") << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

StatusOr<std::string> RenamedRequestText(const JsonValue& recorded,
                                         const std::string& vpi,
                                         uint64_t salt) {
  const std::string renamed = RenameInstanceText(vpi, salt);
  StatusOr<Instance> original = ParseInstanceText(vpi);
  VPART_RETURN_IF_ERROR(original.status());
  StatusOr<Instance> reparsed = ParseInstanceText(renamed);
  VPART_RETURN_IF_ERROR(reparsed.status());
  if (FingerprintInstance(*reparsed).exact_text !=
      FingerprintInstance(*original).exact_text) {
    return InternalError("renaming changed the instance's canonical form");
  }
  return WithInstanceText(recorded, renamed);
}

}  // namespace vpart::perfbench
