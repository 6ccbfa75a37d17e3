"""Turns the raw measurements of vpart_perfbench into named metrics.

Pure functions only, so perfbench/test_metrics.py can check them without a
build: percentile selection, failure counting, metric naming, the end-to-end
and per-layer aggregates, and the exact-repeat check on deterministic counts.
"""

import math
import statistics

# A unit names the suffix every metric measured in it must carry, so a
# reader can tell a metric's unit from its name alone. None: no suffix rule
# beyond not carrying another unit's suffix.
UNIT_SUFFIXES = {
    "s": "_s",
    "ms": "_ms",
    "us/iter": "_us_per_iter",
    "1/s": "_rps",
    "MB": "_mb",
    "ratio": "_ratio",
    "bytes": "_bytes",
    "1/node": "_per_node",
    "count": None,
}

# Counts that must repeat exactly across runs of one commit and seed; the
# objective too, which covers answers with no fixed reference (shape-seeded
# serve solves).
DETERMINISTIC_SAMPLE_COUNTS = ("nodes", "lp_solves", "iterations", "cost")
DETERMINISTIC_LAYER_COUNTS = ("nodes", "lp_solves", "iterations",
                              "sa_iterations", "formulation_vars",
                              "formulation_rows", "formulation_nnz")

# The layers Advise() runs; their sum is compared with its measured wall.
ADVISE_LAYERS = ("grouping_s", "precompute_s", "warm_start_s",
                 "formulation_s", "bnb_s", "sa_s", "price_s", "certify_s")


def name_matches_unit(name, unit):
    """True when `name` carries exactly the suffix its unit demands."""
    if unit not in UNIT_SUFFIXES:
        return False
    def carries(suffix):  # after a "_" or a "." separator
        core = suffix.lstrip("_")
        return name.endswith("_" + core) or name.endswith("." + core)

    suffix = UNIT_SUFFIXES[unit]
    if suffix is not None:
        return carries(suffix)
    return not any(carries(s) for s in UNIT_SUFFIXES.values() if s)


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def highest_tail_percentile(n, candidates=(99.9, 99, 95, 90)):
    """The highest candidate percentile that leaves at least ten samples
    beyond it among `n`, or None when no candidate does."""
    for p in candidates:
        if n - _rank(p, n) >= 10:
            return p
    return None


def count_failures(samples):
    """(attempted, failed): every sample was attempted; one that is not ok
    (an error, a refusal or a wrong answer) failed."""
    attempted = len(samples)
    failed = sum(1 for s in samples if not s.get("ok"))
    return attempted, failed


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, by name."""
    samples = raw["samples"]
    latencies = [s["latency_s"] for s in samples]
    # Failed samples stay out: on the ILP workloads a worse answer fails
    # its check, so it shows in `failed`, not in this ratio.
    with_reference = [s for s in samples
                      if s.get("reference") is not None and s.get("ok")]
    if not with_reference:
        raise ValueError("no answer with a reference passed its checks")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_s": statistics.median(latencies),
        "throughput_rps": _ratio(len(samples), raw["loop_s"]),
        "cpu_per_request_s": _ratio(raw["cpu_s"], len(samples)),
        "advice_cost_ratio": _ratio(
            sum(s["cost"] for s in with_reference),
            sum(s["reference"] for s in with_reference)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def tail_latency(raw):
    """{"latency_p90_s": ...} when the run has enough samples for it."""
    latencies = [s["latency_s"] for s in raw["samples"]]
    if highest_tail_percentile(len(latencies), (90,)) is None:
        return {}
    return {"latency_p90_s": percentile(latencies, 90)}


def _advise_wall_by_key(raw):
    """Mean untraced Advise() seconds per request key."""
    walls = {}
    source = raw["cold_baseline"] or raw["samples"]
    for s in source:
        if s.get("ok") and s.get("advise_s", 0) > 0:
            walls.setdefault(s["key"], []).append(s["advise_s"])
    return {k: _mean(v) for k, v in walls.items()}


def _serve_layer(raw):
    replies = [s for s in raw["samples"] if s.get("expected_cache")]
    out = {name: 0.0 for name in (
        "serve.exact_hit_p50_s", "serve.seeded_p50_s", "serve.cold_p50_s",
        "serve.seeded_iteration_ratio", "serve.queue_wait_s")}
    if not replies:
        return out
    by_kind = {}
    for s in replies:
        by_kind.setdefault(s.get("cache", ""), []).append(s)
    for kind, p50_name in (("exact", "serve.exact_hit_p50_s"),
                           ("shape", "serve.seeded_p50_s"),
                           ("miss", "serve.cold_p50_s")):
        group = by_kind.get(kind, [])
        if group:
            out[p50_name] = statistics.median(s["latency_s"] for s in group)
    solved = by_kind.get("shape", []) + by_kind.get("miss", [])
    if solved:
        out["serve.queue_wait_s"] = statistics.median(
            s["latency_s"] - s["server_s"] for s in solved)
    cold_iterations = {s["key"]: s["iterations"] for s in raw["cold_baseline"]}
    seeded = [s for s in replies if s["cls"] == "shifted"
              and s["episode"] == 0 and s["key"] in cold_iterations]
    out["serve.seeded_iteration_ratio"] = _ratio(
        sum(s["iterations"] for s in seeded),
        sum(cold_iterations[s["key"]] for s in seeded))
    return out


def per_layer(raw):
    """The per-layer metrics of one traced run, by name. Layers a workload
    does not run report 0."""
    layers = [l for l in raw["layers"] if not l.get("error")]
    total = lambda field: sum(l[field] for l in layers)  # noqa: E731
    mean = lambda field: _mean([l[field] for l in layers])  # noqa: E731
    walls = _advise_wall_by_key(raw)
    timed = [l for l in layers if l["key"] in walls]
    advise_s = _mean([walls[l["key"]] for l in timed])
    attributed = _mean([sum(l[f] for f in ADVISE_LAYERS) for l in timed])
    out = {
        "solver.grouping_s": mean("grouping_s"),
        "solver.grouping_attr_ratio": _ratio(total("groups"),
                                             total("attributes")),
        "cost.precompute_s": mean("precompute_s"),
        "solver.formulation_s": mean("formulation_s"),
        "solver.formulation_vars": mean("formulation_vars"),
        "solver.formulation_rows": mean("formulation_rows"),
        "solver.formulation_nnz": mean("formulation_nnz"),
        "lp.root_s": mean("root_lp_s"),
        "lp.root_iterations": mean("root_iterations"),
        "lp.root_us_per_iter": 1e6 * _ratio(total("root_lp_s"),
                                            total("root_iterations")),
        "lp.root_factorizations": mean("root_factorizations"),
        "mip.bnb_s": mean("bnb_s"),
        "mip.nodes": mean("nodes"),
        "mip.lp_solves": mean("lp_solves"),
        "mip.iterations": mean("iterations"),
        "mip.us_per_iter": 1e6 * _ratio(total("lp_seconds"),
                                        total("iterations")),
        "mip.factorizations_per_node": _ratio(total("factorizations"),
                                              total("nodes")),
        "mip.warm_start_ratio": _ratio(
            total("warm_starts"),
            total("warm_starts") + total("warm_start_failures")),
        "solver.sa_s": mean("sa_s"),
        "solver.sa_iterations": mean("sa_iterations"),
        "solver.sa_us_per_iter": 1e6 * _ratio(total("sa_s"),
                                              total("sa_iterations")),
        "solver.sa_accept_ratio": _ratio(total("sa_accepted"),
                                         total("sa_iterations")),
        "solver.ilp_warm_start_s": mean("warm_start_s"),
        "api.price_s": mean("price_s"),
        "check.certify_s": mean("certify_s"),
        "api.parse_s": mean("parse_s"),
        "api.response_json_s": mean("json_s"),
        "api.response_bytes": mean("response_bytes"),
        "serve.fingerprint_s": mean("fingerprint_s"),
        "api.advise_s": advise_s,
        "api.unattributed_s": advise_s - attributed,
        "obs.trace_overhead_ratio": _ratio(
            sum(l["replay_s"] for l in timed),
            sum(walls[l["key"]] for l in timed)),
    }
    out.update(_serve_layer(raw))
    return out


def deterministic_counts(raw):
    """{key: {count: value}} from the run, plus a list of the counts that
    differed between repetitions inside the run, or between a traced replay
    and the real Advise() path of the same request."""
    counts, drift = {}, []

    def merge(key, fields, record):
        seen = counts.setdefault(key, {})
        for field in fields:
            if field not in record:
                continue
            if field in seen and seen[field] != record[field]:
                drift.append(f"{key}.{field}: {seen[field]} != {record[field]}")
            seen.setdefault(field, record[field])

    for s in raw["samples"]:
        if s.get("ok"):
            merge(f"e{s['episode']}.{s['key']}", DETERMINISTIC_SAMPLE_COUNTS, s)
    # Real-path solves of exactly the requests the replay repeats.
    real = raw["cold_baseline"] or raw["samples"]
    for s in real:
        if s.get("ok"):
            merge(f"real.{s['key']}", DETERMINISTIC_SAMPLE_COUNTS, s)
    for l in raw["layers"]:
        if not l.get("error"):
            merge(f"replay.{l['key']}", DETERMINISTIC_LAYER_COUNTS, l)
            merge(f"real.{l['key']}", DETERMINISTIC_SAMPLE_COUNTS, l)
    return counts, drift


def compare_counts(previous, current):
    """Differences between two {key: {count: value}} maps on shared keys."""
    drift = []
    for key, fields in current.items():
        for field, value in fields.items():
            old = previous.get(key, {}).get(field)
            if old is not None and old != value:
                drift.append(f"{key}.{field}: {old} != {value}")
    return drift
