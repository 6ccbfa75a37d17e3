// Seeded input generation for the benchmark: every request the benchmark
// sends is derived from a recorded request (perfbench/workloads.json) and the
// run's --seed, so one seed always yields byte-identical inputs.
#ifndef VPART_PERFBENCH_INPUTS_H_
#define VPART_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "api/json.h"
#include "util/status.h"

namespace vpart::perfbench {

/// SplitMix64 finalizer over two words; derives sub-seeds from the run seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// Renames every table, attribute, transaction and query of a `.vpi` text
/// (and the instance itself) to names derived from `salt`. Declaration order
/// and all numbers stay as they are, so the renamed text is the same problem
/// up to renaming: its canonical fingerprint equals the original's and the
/// solvers, which work on ids, do the same work on it.
std::string RenameInstanceText(const std::string& vpi, uint64_t salt);

/// Multiplies every query frequency of a `.vpi` text by a factor drawn from
/// [0.5, 2) with `seed`. The structure is untouched, so the result has the
/// same model shape (a serve-layer shape hit) but different numerics.
std::string ShiftFrequencies(const std::string& vpi, uint64_t seed);

/// The recorded request with its instance replaced by `vpi` renamed with
/// `salt`, embedded as `.vpi` text. Fails unless the renamed instance's
/// canonical fingerprint equals the original's.
StatusOr<std::string> RenamedRequestText(const JsonValue& recorded,
                                         const std::string& vpi,
                                         uint64_t salt);

}  // namespace vpart::perfbench

#endif  // VPART_PERFBENCH_INPUTS_H_
