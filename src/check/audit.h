#ifndef VPART_CHECK_AUDIT_H_
#define VPART_CHECK_AUDIT_H_

#include <string>

namespace vpart {

/// How much self-checking the LP core performs while it solves. The audits
/// are observational: a failed check increments LpSolveStats::audit_failures
/// (surfaced as telemetry.mip.audit_failures) and logs a warning, but never
/// changes the solve path — the point is to catch a silently drifted
/// factorization or a corrupted basis snapshot in telemetry before it
/// corrupts an "optimal" answer, not to mask it with a retry.
///
///   kOff    no audits (the default; zero overhead, telemetry unchanged)
///   kCheap  basis-header consistency on LoadBasis + a residual check
///           ‖A·x − b‖∞ after every refactorization
///   kFull   kCheap plus a residual check every
///           SimplexOptions::audit_ft_interval Forrest–Tomlin updates,
///           devex / dual-steepest-edge weight positivity at solve end,
///           and, when the dual simplex claims optimality, its cached
///           per-row infeasibilities against a recomputation
enum class AuditLevel { kOff, kCheap, kFull };

/// "off" / "cheap" / "full".
const char* AuditLevelName(AuditLevel level);

/// Parses "off" / "cheap" / "full"; returns false (leaving *out untouched)
/// on anything else.
bool ParseAuditLevel(const std::string& text, AuditLevel* out);

}  // namespace vpart

#endif  // VPART_CHECK_AUDIT_H_
