#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by the bench harness.

Usage:
  scripts/validate_bench_json.py FILE [FILE ...]
      Schema-check each report (schema_version 2..7, legacy 1 accepted;
      see bench/harness.hpp). Rejects non-finite numerics (NaN/Infinity
      are not valid JSON) and, when present, validates the "trace"
      section, the schema-3 chaos sections ("trial_failures" and
      "degradations"), the schema-4 "resources" section (per-workload
      static resource counts), the schema-5 "serving" section
      (per-workload admission counts, latency quantiles and request-id-
      sorted shed/degradation event arrays), the per-layer cache
      counters under "timing" (count conservation), and the schema-7
      "lifecycle" section (per-workload deadline / cancellation outcome
      counts conserving against admission, budget-consumption
      quantiles, and per-site circuit-breaker transition chains
      replayed against the closed/open/half-open state machine).

  scripts/validate_bench_json.py --compare A.json B.json
      Assert two reports from the same bench/config are identical modulo
      the "timing" subtree and config.threads — the determinism contract
      of the parallel evaluation engine.

Exits non-zero on the first malformed or mismatching report. Uses only
the Python standard library.
"""

import json
import math
import sys

SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7)

# Legal circuit-breaker transitions (serve/breaker.hpp): closed trips
# open, open thaws half-open after the cooldown, a half-open probe
# either re-opens or closes the breaker.
BREAKER_STATES = ("closed", "open", "half-open")
BREAKER_EDGES = {
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "open"),
    ("half-open", "closed"),
}

# Per-row lifecycle outcome counters; all non-negative exact ints.
LIFECYCLE_COUNT_KEYS = (
    "requests", "deadline_exceeded", "cancelled",
    "budget_pressure_degradations", "breaker_short_circuits",
    "breaker_probes",
)

# The counter keys of one cache::Stats blob.
CACHE_STAT_KEYS = ("lookups", "hits", "misses", "inserts", "evictions")

# Required keys of each schema-4 "resources" row; every one is a count
# from the static resource-analysis engine (qasm/analysis) and must be a
# non-negative integer.
RESOURCE_COUNT_KEYS = (
    "qubits", "qubits_used", "gate_count", "t_count", "ccx_count",
    "rotation_count", "two_qubit_count", "non_clifford_count",
    "measure_count", "depth", "t_depth",
)


def fail(msg: str) -> None:
    print(f"validate_bench_json: {msg}", file=sys.stderr)
    sys.exit(1)


def _reject_constant(token: str):
    # Python's json accepts NaN/Infinity by default; real JSON does not,
    # and a NaN in a report poisons every downstream comparison.
    raise ValueError(f"non-finite numeric literal {token!r}")


def check_finite(path: str, value, where: str = "$") -> None:
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{path}: non-finite number at {where}")
    elif isinstance(value, dict):
        for key, item in value.items():
            check_finite(path, item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            check_finite(path, item, f"{where}[{i}]")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        fail(f"{path}: {exc}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be a JSON object")
    check_finite(path, doc)
    return doc


def check_schema(path: str, doc: dict) -> None:
    if doc.get("schema_version") not in SCHEMA_VERSIONS:
        fail(f"{path}: schema_version must be one of {SCHEMA_VERSIONS}, "
             f"got {doc.get('schema_version')!r}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(f"{path}: 'bench' must be a non-empty string")

    config = doc.get("config")
    if not isinstance(config, dict):
        fail(f"{path}: 'config' must be an object")
    for key, kind in (("samples", (int, float)), ("seed", (int, float)),
                      ("threads", (int, float)), ("quick", bool)):
        if key not in config:
            fail(f"{path}: config.{key} missing")
        if not isinstance(config[key], kind):
            fail(f"{path}: config.{key} has wrong type "
                 f"({type(config[key]).__name__})")

    timing = doc.get("timing")
    if not isinstance(timing, dict):
        fail(f"{path}: 'timing' must be an object")
    for key in ("wall_seconds", "trials", "trials_per_second"):
        if not isinstance(timing.get(key), (int, float)):
            fail(f"{path}: timing.{key} must be a number")
    if timing["wall_seconds"] < 0:
        fail(f"{path}: timing.wall_seconds is negative")
    if timing["trials"] < 0:
        fail(f"{path}: timing.trials is negative")

    if not isinstance(doc.get("results"), dict):
        fail(f"{path}: 'results' must be an object")

    if "trace" in doc:
        check_trace(path, doc["trace"])

    if doc["schema_version"] >= 3:
        check_chaos_sections(path, doc)
    else:
        for key in ("trial_failures", "degradations"):
            if key in doc:
                fail(f"{path}: '{key}' requires schema_version >= 3")

    if doc["schema_version"] >= 4:
        check_resources(path, doc)
    elif "resources" in doc:
        fail(f"{path}: 'resources' requires schema_version >= 4")

    if doc["schema_version"] >= 5:
        check_serving(path, doc)
    elif "serving" in doc:
        fail(f"{path}: 'serving' requires schema_version >= 5")

    if "cache" in timing:
        check_cache_timing(path, timing["cache"])

    if doc["schema_version"] >= 7:
        check_lifecycle(path, doc)
    elif "lifecycle" in doc:
        fail(f"{path}: 'lifecycle' requires schema_version >= 7")


def check_trace(path: str, trace) -> None:
    """Validates the deterministic trace summary written under --trace."""
    if not isinstance(trace, dict):
        fail(f"{path}: 'trace' must be an object")
    for section in ("spans", "counters", "histograms"):
        if not isinstance(trace.get(section), dict):
            fail(f"{path}: trace.{section} must be an object")
    for name, count in trace["spans"].items():
        if not isinstance(count, int) or count < 0:
            fail(f"{path}: trace.spans.{name} must be a non-negative int")
    for name, total in trace["counters"].items():
        if not isinstance(total, int):
            fail(f"{path}: trace.counters.{name} must be an int "
                 f"(exact integers; doubles lose precision past 2**53)")
    for name, hist in trace["histograms"].items():
        if not isinstance(hist, dict):
            fail(f"{path}: trace.histograms.{name} must be an object")
        for key in ("count", "sum", "min", "max"):
            if key not in hist:
                fail(f"{path}: trace.histograms.{name}.{key} missing")
        if not isinstance(hist["count"], int) or hist["count"] < 0:
            fail(f"{path}: trace.histograms.{name}.count must be a "
                 f"non-negative int")


def check_chaos_sections(path: str, doc: dict) -> None:
    """Validates the schema-3 chaos sections (see eval/runner.hpp:
    trial_failures_to_json / degradations_to_json). Both arrays are
    deterministic for a fixed (seed, samples, scenario), so the
    --compare mode includes them."""
    failures = doc.get("trial_failures")
    if not isinstance(failures, list):
        fail(f"{path}: 'trial_failures' must be an array (schema 3)")
    for i, entry in enumerate(failures):
        if not isinstance(entry, dict):
            fail(f"{path}: trial_failures[{i}] must be an object")
        for key, kind in (("case", int), ("sample", int), ("stage", str),
                          ("site", str), ("retries", int), ("what", str)):
            if not isinstance(entry.get(key), kind):
                fail(f"{path}: trial_failures[{i}].{key} must be "
                     f"{kind.__name__}")
        if entry["retries"] < 0:
            fail(f"{path}: trial_failures[{i}].retries is negative")
        if not entry["stage"]:
            fail(f"{path}: trial_failures[{i}].stage is empty")

    degradations = doc.get("degradations")
    if not isinstance(degradations, list):
        fail(f"{path}: 'degradations' must be an array (schema 3)")
    for i, entry in enumerate(degradations):
        if not isinstance(entry, dict):
            fail(f"{path}: degradations[{i}] must be an object")
        for key, kind in (("case", int), ("sample", int), ("pass", int),
                          ("stage", str), ("from", str), ("to", str),
                          ("reason", str)):
            if not isinstance(entry.get(key), kind):
                fail(f"{path}: degradations[{i}].{key} must be "
                     f"{kind.__name__}")


def check_resources(path: str, doc: dict) -> None:
    """Validates the schema-4 "resources" section: one row per workload,
    each a static resource digest (see qasm/analysis/resources.hpp).
    The section is fully deterministic, so --compare includes it."""
    resources = doc.get("resources")
    if not isinstance(resources, list):
        fail(f"{path}: 'resources' must be an array (schema 4)")
    for i, entry in enumerate(resources):
        if not isinstance(entry, dict):
            fail(f"{path}: resources[{i}] must be an object")
        workload = entry.get("workload")
        if not isinstance(workload, str) or not workload:
            fail(f"{path}: resources[{i}].workload must be a non-empty "
                 f"string")
        for key in RESOURCE_COUNT_KEYS:
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(f"{path}: resources[{i}].{key} must be an int "
                     f"(exact counts; got {type(value).__name__})")
            if value < 0:
                fail(f"{path}: resources[{i}].{key} is negative")
        if entry["qubits_used"] > entry["qubits"]:
            fail(f"{path}: resources[{i}]: qubits_used exceeds qubits")
        if entry["t_depth"] > entry["depth"]:
            fail(f"{path}: resources[{i}]: t_depth exceeds depth")


def check_serving(path: str, doc: dict) -> None:
    """Validates the schema-5 "serving" section: one row per workload
    (see serve/report.hpp ServingSummary::to_json). Everything here —
    counts, virtual-time latency quantiles, shed/degradation events — is
    deterministic at any --threads value, so --compare includes it;
    wall-clock serving latency lives under "timing". From schema 7 the
    rows also carry deadline_exceeded / cancelled outcome counts and the
    admission conservation law widens to include them."""
    schema = doc["schema_version"]
    serving = doc.get("serving")
    if not isinstance(serving, dict):
        fail(f"{path}: 'serving' must be an object (schema 5)")
    rows = serving.get("rows")
    if not isinstance(rows, list):
        fail(f"{path}: serving.rows must be an array")
    for i, row in enumerate(rows):
        where = f"serving.rows[{i}]"
        if not isinstance(row, dict):
            fail(f"{path}: {where} must be an object")
        mix = row.get("mix")
        if not isinstance(mix, str) or not mix:
            fail(f"{path}: {where}.mix must be a non-empty string")
        if not isinstance(row.get("rate"), (int, float)) or row["rate"] <= 0:
            fail(f"{path}: {where}.rate must be a positive number")
        count_keys = ["requests", "completed", "shed", "failed",
                      "semantic_ok", "admitted_full", "admitted_no_rag",
                      "admitted_static_only"]
        if schema >= 7:
            count_keys += ["deadline_exceeded", "cancelled"]
        for key in count_keys:
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(f"{path}: {where}.{key} must be an int")
            if value < 0:
                fail(f"{path}: {where}.{key} is negative")
        admitted = (row["admitted_full"] + row["admitted_no_rag"]
                    + row["admitted_static_only"])
        if admitted + row["shed"] != row["requests"]:
            fail(f"{path}: {where}: admission counts ({admitted} admitted "
                 f"+ {row['shed']} shed) do not sum to requests "
                 f"({row['requests']})")
        # Every admitted request resolves to exactly one outcome: before
        # schema 7 only completed/failed existed; from 7 on deadline and
        # cancellation outcomes are first-class and must conserve too.
        resolved = row["completed"] + row["failed"]
        if schema >= 7:
            resolved += row["deadline_exceeded"] + row["cancelled"]
            if resolved != admitted:
                fail(f"{path}: {where}: completed + failed + "
                     f"deadline_exceeded + cancelled != admitted")
        elif resolved != admitted:
            fail(f"{path}: {where}: completed + failed != admitted")
        if row["semantic_ok"] > row["completed"]:
            fail(f"{path}: {where}: semantic_ok exceeds completed")

        quantiles = row.get("virtual_latency")
        if not isinstance(quantiles, dict):
            fail(f"{path}: {where}.virtual_latency must be an object")
        for key in ("p50", "p90", "p99", "p999", "mean", "max"):
            value = quantiles.get(key)
            # Finiteness was already enforced globally by check_finite.
            if not isinstance(value, (int, float)):
                fail(f"{path}: {where}.virtual_latency.{key} must be a "
                     f"number")
            if value < 0:
                fail(f"{path}: {where}.virtual_latency.{key} is negative")
        if not (quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]
                <= quantiles["p999"] <= quantiles["max"]):
            fail(f"{path}: {where}.virtual_latency quantiles are not "
                 f"monotonic")

        for section, keys in (("shed_events", ("request", "arrival_vt",
                                               "depth")),
                              ("degradation_events",
                               ("request", "arrival_vt", "depth", "stage",
                                "from", "to"))):
            events = row.get(section)
            if not isinstance(events, list):
                fail(f"{path}: {where}.{section} must be an array")
            previous = -1
            for j, event in enumerate(events):
                if not isinstance(event, dict):
                    fail(f"{path}: {where}.{section}[{j}] must be an object")
                for key in keys:
                    if key not in event:
                        fail(f"{path}: {where}.{section}[{j}].{key} missing")
                request = event["request"]
                if not isinstance(request, int) or request < 0:
                    fail(f"{path}: {where}.{section}[{j}].request must be a "
                         f"non-negative int")
                # Sorted by request id (non-strict: a static-only
                # admission records two degradation rungs for one id).
                if request < previous:
                    fail(f"{path}: {where}.{section} not sorted by request "
                         f"id at [{j}]")
                previous = request
        if len(row["shed_events"]) != row["shed"]:
            fail(f"{path}: {where}: shed_events length != shed count")


def check_cache_stats(path: str, where: str, stats) -> None:
    """One cache::Stats blob: non-negative exact counters obeying the
    conservation laws (hits + misses == lookups, inserts <= misses —
    every insert is a resolved miss, a failed compute is a miss that
    never inserts — evictions <= inserts), hit_rate in [0, 1]."""
    if not isinstance(stats, dict):
        fail(f"{path}: {where} must be an object")
    for key in CACHE_STAT_KEYS:
        value = stats.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(f"{path}: {where}.{key} must be an int (exact counters)")
        if value < 0:
            fail(f"{path}: {where}.{key} is negative")
    if stats["hits"] + stats["misses"] != stats["lookups"]:
        fail(f"{path}: {where}: hits + misses != lookups")
    if stats["inserts"] > stats["misses"]:
        fail(f"{path}: {where}: inserts exceed misses")
    if stats["evictions"] > stats["inserts"]:
        fail(f"{path}: {where}: evictions exceed inserts")
    rate = stats.get("hit_rate")
    if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
        fail(f"{path}: {where}.hit_rate must be a number in [0, 1]")


def check_cache_timing(path: str, cache) -> None:
    """Validates timing.cache (bench_serving's cache study): one row per
    case mix, each with one cache::Stats blob per memoization layer.
    Hits change latency, never results, and a bounded cache's counters
    depend on the worker schedule, so they ride under "timing", which
    --compare strips."""
    rows = cache.get("rows") if isinstance(cache, dict) else None
    if not isinstance(rows, list):
        fail(f"{path}: timing.cache.rows must be an array")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"{path}: timing.cache.rows[{i}] must be an object")
        # Reports from before the counters moved here carry no layers.
        layers = row.get("layers", [])
        if not isinstance(layers, list):
            fail(f"{path}: timing.cache.rows[{i}].layers must be an array")
        for j, layer in enumerate(layers):
            check_cache_stats(path, f"timing.cache.rows[{i}].layers[{j}]",
                              layer)


def check_lifecycle(path: str, doc: dict) -> None:
    """Validates the schema-7 "lifecycle" section: one row per workload
    (see serve/report.hpp LifecycleSummary::to_json) carrying deadline /
    cancellation outcome counts, budget-consumption quantiles and the
    circuit-breaker transition log. Everything here is expressed in
    serving-layer virtual time, so it is deterministic at any --threads
    value and --compare includes it. The transition log is replayed per
    site against the closed/open/half-open state machine: every edge
    must be legal, chains start closed, and virtual time never runs
    backwards within a site."""
    lifecycle = doc.get("lifecycle")
    if not isinstance(lifecycle, dict):
        fail(f"{path}: 'lifecycle' must be an object (schema 7)")
    rows = lifecycle.get("rows")
    if not isinstance(rows, list):
        fail(f"{path}: lifecycle.rows must be an array")

    # Lifecycle rows are a second projection of the same Server::Stats
    # the serving rows summarise, keyed by workload mix; where a mix
    # appears in both sections the shared counters must agree.
    serving_rows = {}
    for row in (doc.get("serving") or {}).get("rows", []):
        if isinstance(row, dict) and isinstance(row.get("mix"), str):
            serving_rows.setdefault(row["mix"], row)

    for i, row in enumerate(rows):
        where = f"lifecycle.rows[{i}]"
        if not isinstance(row, dict):
            fail(f"{path}: {where} must be an object")
        mix = row.get("mix")
        if not isinstance(mix, str) or not mix:
            fail(f"{path}: {where}.mix must be a non-empty string")
        units = row.get("deadline_units")
        if not isinstance(units, (int, float)) or units < 0:
            fail(f"{path}: {where}.deadline_units must be a non-negative "
                 f"number (0 = deadlines disarmed)")
        for key in LIFECYCLE_COUNT_KEYS:
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(f"{path}: {where}.{key} must be an int")
            if value < 0:
                fail(f"{path}: {where}.{key} is negative")
        if row["deadline_exceeded"] + row["cancelled"] > row["requests"]:
            fail(f"{path}: {where}: deadline_exceeded + cancelled exceed "
                 f"requests")
        serving_row = serving_rows.get(mix)
        if serving_row is not None:
            for key in ("requests", "deadline_exceeded", "cancelled"):
                if serving_row.get(key) != row[key]:
                    fail(f"{path}: {where}.{key} ({row[key]}) disagrees "
                         f"with the serving row for mix {mix!r} "
                         f"({serving_row.get(key)})")

        quantiles = row.get("budget_consumed")
        if not isinstance(quantiles, dict):
            fail(f"{path}: {where}.budget_consumed must be an object")
        for key in ("p50", "p90", "p99", "p999", "mean", "max"):
            value = quantiles.get(key)
            if not isinstance(value, (int, float)):
                fail(f"{path}: {where}.budget_consumed.{key} must be a "
                     f"number")
            if value < 0:
                fail(f"{path}: {where}.budget_consumed.{key} is negative")
        if not (quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]
                <= quantiles["p999"] <= quantiles["max"]):
            fail(f"{path}: {where}.budget_consumed quantiles are not "
                 f"monotonic")

        breaker = row.get("breaker")
        if not isinstance(breaker, dict):
            fail(f"{path}: {where}.breaker must be an object")
        for key in ("opened", "half_opened", "closed"):
            value = breaker.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                fail(f"{path}: {where}.breaker.{key} must be an int")
            if value < 0:
                fail(f"{path}: {where}.breaker.{key} is negative")
        transitions = breaker.get("transitions")
        if not isinstance(transitions, list):
            fail(f"{path}: {where}.breaker.transitions must be an array")
        tallies = {state: 0 for state in BREAKER_STATES}
        chains = {}  # site -> (current state, last vt)
        for j, edge in enumerate(transitions):
            tw = f"{where}.breaker.transitions[{j}]"
            if not isinstance(edge, dict):
                fail(f"{path}: {tw} must be an object")
            site = edge.get("site")
            if not isinstance(site, str) or not site:
                fail(f"{path}: {tw}.site must be a non-empty string")
            for key in ("from", "to"):
                if edge.get(key) not in BREAKER_STATES:
                    fail(f"{path}: {tw}.{key} must be one of "
                         f"{BREAKER_STATES}, got {edge.get(key)!r}")
            if (edge["from"], edge["to"]) not in BREAKER_EDGES:
                fail(f"{path}: {tw}: illegal transition "
                     f"{edge['from']} -> {edge['to']}")
            vt = edge.get("vt")
            if not isinstance(vt, (int, float)) or vt < 0:
                fail(f"{path}: {tw}.vt must be a non-negative number")
            request = edge.get("request")
            if not isinstance(request, int) or request < 0:
                fail(f"{path}: {tw}.request must be a non-negative int "
                     f"(0 = cooldown thaw, no witnessing request)")
            state, last_vt = chains.get(site, ("closed", 0.0))
            if edge["from"] != state:
                fail(f"{path}: {tw}: transition departs {edge['from']!r} "
                     f"but site {site!r} is in state {state!r}")
            if vt < last_vt:
                fail(f"{path}: {tw}: virtual time runs backwards for "
                     f"site {site!r} ({vt} < {last_vt})")
            chains[site] = (edge["to"], vt)
            tallies[edge["to"]] += 1
        for key, state in (("opened", "open"), ("half_opened", "half-open"),
                           ("closed", "closed")):
            if breaker[key] != tallies[state]:
                fail(f"{path}: {where}.breaker.{key} ({breaker[key]}) does "
                     f"not match the transition log ({tallies[state]})")


def strip_nondeterministic(doc: dict) -> dict:
    """Drops the fields allowed to differ between runs of one experiment:
    wall-clock timing, and the thread count used to produce the report."""
    out = {k: v for k, v in doc.items() if k != "timing"}
    out["config"] = {k: v for k, v in doc.get("config", {}).items()
                     if k != "threads"}
    # trials is deterministic; keep it in the comparison.
    out["trials"] = doc.get("timing", {}).get("trials")
    return out


def diff_paths(a, b, prefix=""):
    """Yields dotted paths where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from diff_paths(a.get(key), b.get(key), f"{prefix}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{prefix} (length {len(a)} vs {len(b)})"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{prefix}[{i}]")
    elif a != b:
        yield f"{prefix} ({a!r} vs {b!r})"


def main(argv: list) -> int:
    if not argv:
        fail("no files given (see --help in the module docstring)")
    if argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0

    if argv[0] == "--compare":
        if len(argv) != 3:
            fail("--compare takes exactly two files")
        a_path, b_path = argv[1], argv[2]
        a, b = load(a_path), load(b_path)
        check_schema(a_path, a)
        check_schema(b_path, b)
        mismatches = list(diff_paths(strip_nondeterministic(a),
                                     strip_nondeterministic(b)))
        if mismatches:
            for m in mismatches[:20]:
                print(f"  mismatch at {m}", file=sys.stderr)
            fail(f"{a_path} and {b_path} differ outside 'timing' "
                 f"({len(mismatches)} paths)")
        print(f"OK: {a_path} == {b_path} (modulo timing)")
        return 0

    for path in argv:
        doc = load(path)
        check_schema(path, doc)
        print(f"OK: {path} (bench={doc['bench']}, "
              f"trials={doc['timing']['trials']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
