#!/usr/bin/env python3
"""The hybridpt repository benchmark.

One command builds the analysis from this checkout's sources, runs one
workload, checks every unit's outputs against hpbench/expected.json, and
prints one JSON result object as the last line of standard output:

    python3 hpbench/run.py --workload uniform-heavy --seed 1 --seconds 30 --trace 0

Workloads (hpbench/README.md says why each exists and what it bypasses):

  uniform-heavy   bloat, chart and xalan under U-1obj, U-2obj+H and 2obj+H:
                  createPolicy -> Solver::run -> computeMetrics per cell.
  selective-lint  chart printed to PTIR at set-up; each unit parses it,
                  taint-instruments it with one synthetic spec, and under
                  S-cs, SA-1obj and S-2obj+H solves, runs the checkers,
                  renders SARIF and queries tainted sinks.
  serve-mixed     the real hybridpt-serve daemon (2 workers) on chart loaded
                  from PTIR, driven closed-loop (one request outstanding) by
                  one client with blocks of reload +
                  points-to/callgraph/lint/compare/health.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run.  --record regenerates expected.json from the
Datalog reference (var-points-to, call graph, reachable methods) and pins
the outputs that have no independent oracle (checker, SARIF, taint-sink
and daemon replies) as digests of the current code.

Exit codes: 0 with a result line; 1 when the build, set-up, span
accounting or a run fails (no result line); 2 on bad usage.
"""

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("uniform-heavy", "selective-lint", "serve-mixed")
# Nominal seconds of one pass (one stream block for serve-mixed) on a
# 4-core x86 VM.  --seconds fixes the number of whole passes from these, so
# every run of one length measures the same unit population; the run never
# stops on a clock.
PASS_SECONDS = {"uniform-heavy": 11.0, "selective-lint": 5.0,
                "serve-mixed": 5.0}
SETUP_REPS = 4            # set-up repetitions before every batch pass
LINT_SPECS = 3            # recorded specs whose taint reaches a sink
SERVE_POLICIES = ("2obj+H", "S-2obj+H", "SA-1obj", "insens")
SERVE_COMPARES = (("2obj+H", "S-2obj+H"), ("insens", "SA-1obj"))
SERVE_PER_KIND = 24       # requests of each kind per block
SERVE_VARS = 16
# One outstanding request: with more, whether a cache hit waited behind a
# concurrent solve depended on timing, so each run drew a different mix of
# fast and slow hits and p50_ms fell between the two (README, "Noise").
SERVE_WINDOW = 1
SERVE_SETUP_REPS = 3     # throwaway daemon starts timed before every block
SERVE_WORKERS = 2
REPLY_TIMEOUT_MS = 60000
TAIL_BEYOND = 10          # tail_ms: highest rank with >= 10 samples beyond
UNATTRIBUTED_BOUND = 0.05  # traced unit time allowed outside layer spans

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "tail_ms": "ms",
             "peak_rss_mb": "MB", "ok_share": "share"}
LAYER_UNITS = {
    "workloads.build_ms": "ms",
    "irtext.print_ms": "ms", "irtext.parse_ms": "ms", "irtext.kb": "KB",
    "context.policy_ms": "ms", "context.contexts": "count",
    "context.heap_contexts": "count",
    "taint.instrument_ms": "ms", "taint.query_ms": "ms",
    "taint.sinks": "count",
    "pta.solve_ms": "ms", "pta.metrics_ms": "ms",
    "pta.worklist_steps": "count", "pta.facts_inserted": "count",
    "pta.facts_replayed": "count", "pta.nodes_created": "count",
    "pta.methods_instantiated": "count", "pta.rule_vcall": "count",
    "pta.rule_scall": "count", "pta.peak_bytes": "bytes",
    "pta.dedup_ratio": "ratio", "pta.bytes_per_fact": "ratio",
    "checks.run_ms": "ms", "checks.diagnostics": "count",
    "checks.sarif_ms": "ms", "checks.sarif_kb": "KB",
    "serve.hit_ms": "ms", "serve.miss_ms": "ms", "serve.hit_ratio": "ratio",
    "serve.health_ms": "ms", "serve.reload_ms": "ms", "serve.shed": "count",
    "serve.client_floor_ms": "ms",
    "trace.overhead_ms": "ms", "trace.unattributed_share": "share",
}
# Span name -> per-layer metric of its median per-unit self time.
UNIT_SPANS = {"irtext.parse": "irtext.parse_ms",
              "context.policy": "context.policy_ms",
              "taint.instrument": "taint.instrument_ms",
              "taint.query": "taint.query_ms",
              "pta.solve": "pta.solve_ms", "pta.metrics": "pta.metrics_ms",
              "checks.run": "checks.run_ms", "checks.sarif": "checks.sarif_ms"}
SETUP_SPANS = {"workloads.build": "workloads.build_ms",
               "irtext.print": "irtext.print_ms"}
PASS_COUNTS = ("context.contexts", "context.heap_contexts", "taint.sinks",
               "pta.worklist_steps", "pta.facts_inserted",
               "pta.facts_replayed", "pta.nodes_created",
               "pta.methods_instantiated", "pta.rule_vcall",
               "pta.rule_scall", "checks.diagnostics")


class BenchError(Exception):
    """A failure that voids the run: reported on stderr, no result line."""


def log(msg):
    print("hpbench: " + msg, file=sys.stderr, flush=True)


# --- statistics --------------------------------------------------------------

def tail(values):
    """The highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


# --- build and tools ---------------------------------------------------------

def build():
    """Configures and builds hpbench/CMakeLists.txt into .bench_build."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("no hybridpt sources next to hpbench/ "
                         "(run from a full checkout)")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4", "--target",
                      "hpbench", "hpbench-echo", "hybridpt-serve"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError("build failed; see .bench_build/build.log")


def hpbench(*args, capture=False, cpus=None):
    cmd = [str(BUILD / "hpbench")] + [str(a) for a in args]
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, text=True,
                          stdout=subprocess.PIPE if capture else None,
                          stderr=subprocess.PIPE, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError("hpbench %s failed: %s" % (args[0],
                                                    proc.stderr.strip()))
    return proc.stdout


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (EXPECTED, e))


def passes_for(workload, seconds):
    return max(2, round(seconds / PASS_SECONDS[workload]))


# --- the in-process workloads ------------------------------------------------

def lint_specs(expected, seed):
    """The run's spec list: the recorded specs in a seed-drawn order, the
    same in every pass.  Every seed runs the same units, so a held-out seed
    changes the order but not the work."""
    specs = list(expected["lint_specs"])
    random.Random(seed).shuffle(specs)
    return specs


def check_unit(unit, expected):
    """Mismatch descriptions for one unit's outputs (empty when correct)."""
    cells = expected["cells"]
    if unit["cell"].startswith("spec:"):
        checks = [("chart+%s/%s" % (unit["cell"], pol), out)
                  for pol, out in sorted(unit["out"].items())]
    else:
        checks = [(unit["cell"], unit["out"])]
    bad = []
    for key, out in checks:
        want = cells.get(key)
        if want is None:
            bad.append("%s: no expected values recorded" % key)
            continue
        if out.get("aborted") or out.get("lint_ok") is False:
            bad.append("%s: solve aborted or checkers failed" % key)
        for name, value in want.items():
            if out.get(name) != value:
                bad.append("%s: %s is %s, expected %s"
                           % (key, name, out.get(name), value))
        if "sinks" in out and out["sinks"][0] == 0:
            bad.append("%s: the spec reaches no tainted sink" % key)
    return bad


def span_layers(spans, units, setups):
    """Per-layer self times and the span accounting of the traced units."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    dur = lambda s: s["end"] - s["start"]
    per_unit = {}
    for s in spans:
        if s["parent"] < 0:
            continue
        self_ms = dur(s) - sum(dur(c) for c in children.get(s["id"], []))
        cell = per_unit.setdefault(s["unit"], {})
        cell[s["name"]] = cell.get(s["name"], 0.0) + self_ms
    roots = {s["unit"]: s for s in spans if s["parent"] < 0}

    metrics = {}
    traced = [u["unit"] for u in units if u["traced"]]
    for name, metric in UNIT_SPANS.items():
        metrics[metric] = median([per_unit.get(u, {}).get(name, 0.0)
                                  for u in traced])
    setup_ids = [s["unit"] for s in setups]
    for name, metric in SETUP_SPANS.items():
        metrics[metric] = median([per_unit.get(u, {}).get(name, 0.0)
                                  for u in setup_ids])
    total = leaked = 0.0
    leaks = []
    for u in traced:
        root = roots[u]
        outside = dur(root) - sum(dur(c) for c in children.get(root["id"], []))
        total += dur(root)
        leaked += outside
        if outside > UNATTRIBUTED_BOUND * dur(root):
            leaks.append("unit %d: %.3f of %.3f ms outside every layer span"
                         % (u, outside, dur(root)))
    metrics["trace.unattributed_share"] = leaked / total if total else 0.0
    return metrics, leaks


def run_batch(workload, seed, seconds, trace, expected, work):
    specs = lint_specs(expected, seed) if workload == "selective-lint" else []
    out = work / "batch.jsonl"
    hpbench("batch", "--workload", workload, "--seed", seed,
            "--passes", passes_for(workload, seconds),
            "--setup-reps", SETUP_REPS, "--trace", trace,
            "--specs", ",".join(map(str, specs)) or "-", "--out", out)
    recs = records(out)
    setups = [r for r in recs if r["type"] == "setup"]
    units = [r for r in recs if r["type"] == "unit"]
    spans = [r for r in recs if r["type"] == "span"]
    rss = next(r for r in recs if r["type"] == "rss")

    failed = 0
    latency = []
    for u in units:
        bad = check_unit(u, expected)
        if bad:
            failed += 1
            log("unit %d (%s) failed: %s" % (u["unit"], u["cell"],
                                              "; ".join(bad[:3])))
        latency.append(math.inf if bad else u["ms"])
    result = {"attempted": len(units), "failed": failed}

    if not trace:
        pass_ms = {}
        for u in units:
            pass_ms[u["pass"]] = pass_ms.get(u["pass"], 0.0) + u["ms"]
        result["metrics"] = {
            "setup_s": median([s["ms"] for s in setups]) / 1000.0,
            # A pass's time is the sum of its units: the output checks
            # between units are the benchmark's, not the workload's.
            "wall_s": median(list(pass_ms.values())) / 1000.0,
            "p50_ms": median(latency),
            "tail_ms": tail(latency),
            "peak_rss_mb": rss["peak_kb"] / 1024.0,
            "ok_share": (len(units) - failed) / len(units),
        }
        return result

    metrics, leaks = span_layers(spans, units, setups)
    if metrics["trace.unattributed_share"] > UNATTRIBUTED_BOUND:
        raise BenchError("span accounting: %.1f%% of traced unit time is "
                         "outside every layer span (bound %.0f%%):\n  %s"
                         % (100 * metrics["trace.unattributed_share"],
                            100 * UNATTRIBUTED_BOUND, "\n  ".join(leaks)))
    traced = [u for u in units if u["traced"]]
    by_cell = {}
    for u in units:
        by_cell.setdefault(u["cell"], ([], []))[u["traced"]].append(u["ms"])
    metrics["trace.overhead_ms"] = median([
        median(on) - median(off) for off, on in by_cell.values()])
    first = [u for u in traced if u["pass"] == traced[0]["pass"]]
    sums = {k: sum(u["counts"].get(k, 0) for u in first)
            for k in PASS_COUNTS + ("pta.fact_dedup_hits",
                                    "pta.peak_bytes_sum",
                                    "checks.sarif_bytes")}
    metrics.update({k: sums[k] for k in PASS_COUNTS})
    inserted = sums["pta.facts_inserted"]
    metrics["pta.peak_bytes"] = max(u["counts"].get("pta.peak_bytes", 0)
                                    for u in first)
    metrics["pta.dedup_ratio"] = (
        inserted / (inserted + sums["pta.fact_dedup_hits"]) if inserted
        else 0.0)
    metrics["pta.bytes_per_fact"] = (
        sums["pta.peak_bytes_sum"] / inserted if inserted else 0.0)
    metrics["checks.sarif_kb"] = sums["checks.sarif_bytes"] / 1024.0
    metrics["irtext.kb"] = rss["text_bytes"] / 1024.0
    result["metrics"] = metrics
    return result


# --- serve-mixed -------------------------------------------------------------

def serve_signatures(variables):
    sigs = ["points-to|%s|%s" % (p, v) for p in SERVE_POLICIES
            for v in variables]
    sigs += ["callgraph|" + p for p in SERVE_POLICIES]
    sigs += ["lint|" + p for p in SERVE_POLICIES]
    sigs += ["compare|%s|%s" % c for c in SERVE_COMPARES]
    return sigs


def request_line(rid, sig, reply_bytes=None):
    parts = sig.split("|")
    req = {"id": rid, "kind": parts[0]}
    if parts[0] in ("points-to", "callgraph", "lint"):
        req["policy"] = parts[1]
    if parts[0] == "points-to":
        req["var"] = parts[2]
    if parts[0] == "compare":
        req["base"], req["refined"] = parts[1], parts[2]
    if reply_bytes:
        req["reply_bytes"] = reply_bytes
    return json.dumps(req, separators=(",", ":"))


def build_stream(seed, blocks, serve):
    """The request stream: (signature, line) pairs.  Every block is a reload
    followed by SERVE_PER_KIND requests of each kind, spread evenly over the
    policies, in an order fixed by the block's index; the seed picks the
    points-to variables.  The order decides which requests overlap, and so
    the queueing and the daemon's peak memory: a seed-drawn order made those
    vary from seed to seed more than from run to run."""
    pick = random.Random(seed)
    per_policy = SERVE_PER_KIND // len(SERVE_POLICIES)
    per_pair = SERVE_PER_KIND // len(SERVE_COMPARES)
    stream = []
    for block in range(blocks):
        slots = []
        for p in SERVE_POLICIES:
            slots += ["points-to|" + p, "callgraph|" + p,
                      "lint|" + p] * per_policy
        for c in SERVE_COMPARES:
            slots += ["compare|%s|%s" % c] * per_pair
        slots += ["health"] * SERVE_PER_KIND
        random.Random(block).shuffle(slots)
        stream.append("reload")
        stream += [s + "|" + pick.choice(serve["vars"])
                   if s.startswith("points-to|") else s for s in slots]
    replies = serve["replies"]
    return [(sig, request_line(i + 1, sig, replies[sig]["bytes"]))
            for i, sig in enumerate(stream)]


def serve_client(work, name, stream_lines, command, setup_per_reload=0,
                 keep_lines=0):
    stream = work / (name + "-stream.ndjson")
    stream.write_text("".join(line + "\n" for line in stream_lines))
    out = work / (name + ".jsonl")
    # The client and the daemon it starts share one CPU, so a request's
    # hand-offs (client -> daemon reader -> worker -> client) are context
    # switches on that CPU, not wake-ups of idle virtual CPUs, whose cost
    # follows the host's load and moved p50_ms by up to 2x between runs.
    # With one request outstanding the daemon never has two to run at once.
    hpbench("serve-client", "--stream", stream, "--out", out,
            "--window", SERVE_WINDOW, "--timeout-ms", REPLY_TIMEOUT_MS,
            "--setup-per-reload", setup_per_reload,
            "--log", work / (name + ".log"),
            "--keep-lines", keep_lines, "--", *command,
            cpus={max(os.sched_getaffinity(0))})
    return records(out)


# The daemon loads chart from this path, relative to the checkout: lint
# diagnostics print it, so it must not vary between runs or checkouts.
SERVE_PTIR = Path(".bench_build") / "serve" / "chart.ptir"


def prep_serve(work, trace):
    out = work / "prep.jsonl"
    ptir = SERVE_PTIR
    (ROOT / ptir).parent.mkdir(parents=True, exist_ok=True)
    hpbench("prep", "--program", "chart", "--ptir", ptir,
            "--reps", 5 if trace else 1, "--vars", SERVE_VARS,
            "--trace", trace, "--out", out)
    recs = records(out)
    return ptir, next(r for r in recs if r["type"] == "ptir"), recs


def daemon_command(ptir):
    return [BUILD / "hybridpt-serve", "--program", ptir,
            "--workers", SERVE_WORKERS]


def run_serve(seed, seconds, trace, expected, work):
    serve = expected["serve"]
    ptir, info, prep = prep_serve(work, trace)
    if info["digest"] != serve["ptir"] or info["vars"] != serve["vars"]:
        raise BenchError("the printed chart differs from the recorded one")
    stream = build_stream(seed, passes_for("serve-mixed", seconds), serve)
    recs = serve_client(work, "daemon", [line for _, line in stream],
                        daemon_command(ptir),
                        setup_per_reload=SERVE_SETUP_REPS)
    setups = [r["ms"] for r in recs if r["type"] == "setup"]
    reqs = {r["i"]: r for r in recs if r["type"] == "req"}
    rss = next(r for r in recs if r["type"] == "rss")

    failed = 0
    latency = []
    epoch = 1
    for i, (sig, _) in enumerate(stream):
        r = reqs.get(i, {"error": "no record"})
        kind = sig.split("|")[0]
        if kind == "reload":
            epoch += 1
        bad = r.get("error")
        if not bad:
            if not r["ok"] or r["degraded"] or r["faulted"] or r["code"]:
                bad = "reply not clean: code %r" % r["code"]
            elif kind != r["kind"]:
                bad = "reply kind %s" % r["kind"]
            elif kind == "reload" and r["epoch"] != epoch:
                bad = "reload answered epoch %d, expected %d" % (r["epoch"],
                                                                epoch)
            elif kind not in ("reload", "health") and \
                    r["lines"] != serve["replies"][sig]["lines"]:
                bad = "answer differs from the recorded one"
        if bad:
            failed += 1
            log("request %d (%s) failed: %s" % (i + 1, sig, bad))
            latency.append(math.inf)
        else:
            latency.append(r["recv"] - r["sent"])
    result = {"attempted": len(stream), "failed": failed}

    if not trace:
        blocks, start = [], None
        for i, (sig, _) in enumerate(stream + [("reload", None)]):
            if sig == "reload":
                if start is not None:
                    ends = [reqs[j]["recv"] for j in range(start, i)
                            if "recv" in reqs.get(j, {})]
                    blocks.append(max(ends) - reqs[start]["sent"]
                                  if len(ends) == i - start else math.inf)
                start = i
        result["metrics"] = {
            "setup_s": median(setups) / 1000.0,
            "wall_s": median(blocks) / 1000.0,
            "p50_ms": median(latency),
            "tail_ms": tail(latency),
            "peak_rss_mb": rss["peak_kb"] / 1024.0,
            "ok_share": (len(stream) - failed) / len(stream),
        }
        return result

    echo = serve_client(work, "echo", [line for _, line in stream],
                        [BUILD / "hpbench-echo"])
    floor = [r["recv"] - r["sent"] for r in echo
             if r["type"] == "req" and "recv" in r]
    ok = [(sig.split("|")[0], reqs[i]) for i, (sig, _) in enumerate(stream)
          if math.isfinite(latency[i])]
    lat = lambda r: r["recv"] - r["sent"]
    work_kinds = ("points-to", "callgraph", "lint", "compare")
    hits = [lat(r) for k, r in ok if k in work_kinds and r["hit"]]
    misses = [lat(r) for k, r in ok if k in work_kinds and not r["hit"]]
    spans = [r for r in prep if r["type"] == "span"]
    prep_units = sorted({s["unit"] for s in spans})
    metrics = {k: 0.0 for k in LAYER_UNITS}
    per = lambda name, units: median([
        sum(s["end"] - s["start"] for s in spans
            if s["name"] == name and s["unit"] == u) for u in units])
    metrics.update({
        "workloads.build_ms": per("workloads.build", prep_units[0::2]),
        "irtext.print_ms": per("irtext.print", prep_units[0::2]),
        "irtext.parse_ms": per("irtext.parse", prep_units[1::2]),
        "irtext.kb": info["digest"][0] / 1024.0,
        "serve.hit_ms": median(hits) if hits else 0.0,
        "serve.miss_ms": median(misses) if misses else 0.0,
        "serve.hit_ratio": len(hits) / max(1, len(hits) + len(misses)),
        "serve.health_ms": median([lat(r) for k, r in ok if k == "health"]),
        "serve.reload_ms": median([lat(r) for k, r in ok if k == "reload"]),
        "serve.shed": sum(1 for r in reqs.values()
                          if r.get("code") == "overloaded"),
        "serve.client_floor_ms": median(floor),
    })
    result["metrics"] = metrics
    return result


# --- record mode -------------------------------------------------------------

def reference(program, policy, spec=None):
    args = ["reference", "--program", program, "--policy", policy]
    if spec is not None:
        args += ["--spec", spec]
    log("reference %s/%s%s" % (program, policy,
                               "" if spec is None else " spec %s" % spec))
    return json.loads(hpbench(*args, capture=True))


def record(work):
    """Regenerates expected.json.  Slow: the Datalog reference runs on every
    cell a workload solves."""
    cells = {}
    keep = ("vpt", "cg", "reach")
    for program in ("bloat", "chart", "xalan"):
        for policy in ("U-1obj", "U-2obj+H", "2obj+H"):
            ref = reference(program, policy)
            cells["%s/%s" % (program, policy)] = {k: ref[k] for k in keep}

    specs = json.loads(hpbench("scan-specs", "--count", LINT_SPECS,
                               "--max-seed", 100, "--max-growth-pct", 25,
                               capture=True))["seeds"]
    for spec in specs:
        for policy in ("S-cs", "SA-1obj", "S-2obj+H"):
            ref = reference("chart", policy, spec)
            cells["chart+spec:%d/%s" % (spec, policy)] = {
                k: ref[k] for k in keep}
    out = work / "record-lint.jsonl"
    hpbench("batch", "--workload", "selective-lint", "--seed", 0,
            "--passes", 1, "--setup-reps", 1, "--trace", 0,
            "--specs", ",".join(map(str, specs)), "--out", out)
    for unit in records(out):
        if unit["type"] != "unit":
            continue
        for policy, got in unit["out"].items():
            want = cells["chart+%s/%s" % (unit["cell"], policy)]
            if any(got[k] != want[k] for k in keep):
                raise BenchError("%s/%s: solver disagrees with the reference"
                                 % (unit["cell"], policy))
            want.update({k: got[k] for k in ("diags", "sarif", "sinks")})

    ptir, info, _ = prep_serve(work, 0)
    serve = {"ptir": info["digest"], "vars": info["vars"], "replies": {}}
    sigs = serve_signatures(info["vars"]) + ["health", "reload"]
    recs = serve_client(work, "record", [request_line(i + 1, s)
                                         for i, s in enumerate(sigs)],
                        daemon_command(ptir), keep_lines=1)
    reqs = {r["i"]: r for r in recs if r["type"] == "req"}
    for i, sig in enumerate(sigs):
        r = reqs.get(i)
        if not r or not r.get("ok") or r.get("degraded"):
            raise BenchError("record: %s was not answered cleanly" % sig)
        serve["replies"][sig] = {"bytes": r["bytes"]}
        if sig not in ("health", "reload"):
            serve["replies"][sig]["lines"] = r["lines"]
        if sig.startswith("callgraph|"):
            # The daemon's Table 1 row must carry the reference's counts.
            ref = reference("chart", sig.split("|")[1])
            row = dict(zip(r["text"][0].split(","), r["text"][1].split(",")))
            for col, key in (("cg_edges", "cg_edges"),
                             ("reachable_methods", "reachable"),
                             ("cs_vpt", "cs_vpt")):
                if int(row[col]) != ref[key]:
                    raise BenchError("record: daemon %s %s=%s, reference %s"
                                     % (sig, col, row[col], ref[key]))
    data = {"cells": cells, "lint_specs": specs, "serve": serve}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    log("wrote %s" % EXPECTED)


# --- main --------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="regenerate expected.json (slow)")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    work = None
    try:
        build()
        work = BUILD / "work" / ("%s-%d" % (args.workload or "record",
                                            os.getpid()))
        work.mkdir(parents=True)
        if args.record:
            record(work)
            return 0
        expected = load_expected()
        if args.workload == "serve-mixed":
            result = run_serve(args.seed, args.seconds, args.trace, expected,
                               work)
        else:
            result = run_batch(args.workload, args.seed, args.seconds,
                               args.trace, expected, work)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)

    units = E2E_UNITS if not args.trace else LAYER_UNITS
    metrics = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
