#ifndef VPART_BENCH_BENCH_UTIL_H_
#define VPART_BENCH_BENCH_UTIL_H_

#include <string>

#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "report/table_printer.h"
#include "util/string_util.h"

namespace vpart::bench {

inline std::string Seconds(double s) {
  return StrFormat("%.1f", s);
}

/// Appends the paper's '*' marker when a multi-site cost exceeds the
/// single-site baseline (possible under the λ > 0 load-balancing term).
inline std::string MarkIfWorse(std::string cell, bool has_solution,
                               double cost, double baseline) {
  if (has_solution && cost > baseline * (1 + 1e-9)) cell += "*";
  return cell;
}

}  // namespace vpart::bench

#endif  // VPART_BENCH_BENCH_UTIL_H_
