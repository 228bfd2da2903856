#!/usr/bin/env python3
"""CLI robustness tests for tools/trace_summary.py,
tools/check_bench_regression.py, the numeric flags of hybridpt,
hybridpt-lint, hybridpt-fuzz, hybridpt-serve and hybridpt-replay, the
HYBRIDPT_* environment variables of table1_main, and golden reports of
hybridpt.

Every malformed input — missing file, empty file, truncated JSONL, wrong
top-level JSON shape, non-numeric fields — must produce a clear one-line
error or warning and a controlled exit code, never a Python traceback.
A bad or missing flag value must be reported naming the flag and end in
the tool's usage exit code, never in an abort and never in a silent
default.

Runs under pytest (each test_* function is collected) and standalone
(`python3 tests/tools_cli_test.py`).
"""

import json
import os
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "tools")
TRACE_SUMMARY = os.path.join(TOOLS_DIR, "trace_summary.py")
BENCH_CHECK = os.path.join(TOOLS_DIR, "check_bench_regression.py")


def run(script, *args):
    return subprocess.run(
        [sys.executable, script] + list(args),
        capture_output=True, text=True, timeout=60,
    )


def assert_no_traceback(proc, context):
    combined = proc.stdout + proc.stderr
    assert "Traceback" not in combined, (
        "%s: tool crashed with a traceback:\n%s" % (context, combined))


def write_tmp(content, suffix):
    fd, path = tempfile.mkstemp(suffix=suffix)
    with os.fdopen(fd, "w") as f:
        f.write(content)
    return path


# --- trace_summary.py ---

def test_trace_summary_missing_file():
    proc = run(TRACE_SUMMARY, "/nonexistent/trace.jsonl")
    assert proc.returncode != 0
    assert_no_traceback(proc, "missing trace")
    assert "error:" in proc.stderr


def test_trace_summary_empty_file():
    path = write_tmp("", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert proc.returncode != 0
        assert_no_traceback(proc, "empty trace")
        assert "no trace records" in proc.stderr
    finally:
        os.unlink(path)


def test_trace_summary_truncated_and_malformed_records():
    # A plausible trace whose tail was cut mid-record, with one span whose
    # duration is garbage and a heartbeat with a non-numeric fact count.
    lines = [
        json.dumps({"type": "meta", "version": 1, "telemetry": True}),
        json.dumps({"type": "span", "name": "solve", "dur_ms": 12.5,
                    "cat": "phase"}),
        json.dumps({"type": "span", "name": "solve", "dur_ms": "NaNish"}),
        json.dumps({"type": "heartbeat", "label": "x", "step": 10,
                    "facts": {"oops": 1}, "total": {"rule_alloc": 3}}),
        '{"type": "span", "name": "trunc',  # the truncated tail
    ]
    path = write_tmp("\n".join(lines) + "\n", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert_no_traceback(proc, "truncated trace")
        assert proc.returncode == 0, proc.stderr
        assert "bad JSON" in proc.stderr  # the truncated line was flagged
        assert "solve" in proc.stdout     # the good span still summarized
    finally:
        os.unlink(path)


def test_trace_summary_happy_path_still_works():
    lines = [
        json.dumps({"type": "meta", "version": 1, "telemetry": False}),
        json.dumps({"type": "span", "name": "parse", "dur_ms": 1.0,
                    "cat": "phase"}),
    ]
    path = write_tmp("\n".join(lines) + "\n", ".jsonl")
    try:
        proc = run(TRACE_SUMMARY, path)
        assert proc.returncode == 0, proc.stderr
        assert "parse" in proc.stdout
    finally:
        os.unlink(path)


# --- check_bench_regression.py ---

def bench_doc(cells):
    return json.dumps({"budget_ms": 0, "runs": 1, "threads": 1,
                       "cells": cells})


GOOD_CELL = {"benchmark": "b", "policy": "p", "time_ms": 100.0,
             "aborted": False, "cs_vpt_facts": 5}


def test_bench_check_missing_file():
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, "/nonexistent/base.json", good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "missing baseline")
        assert "error:" in proc.stderr
    finally:
        os.unlink(good)


def test_bench_check_empty_file():
    empty = write_tmp("", ".json")
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, empty, good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "empty baseline")
        assert "error:" in proc.stderr
    finally:
        os.unlink(empty)
        os.unlink(good)


def test_bench_check_wrong_top_level_shape():
    listy = write_tmp(json.dumps([1, 2, 3]), ".json")
    good = write_tmp(bench_doc([GOOD_CELL]), ".json")
    try:
        proc = run(BENCH_CHECK, listy, good)
        assert proc.returncode != 0
        assert_no_traceback(proc, "list top level")
        assert "expected a JSON object" in proc.stderr
    finally:
        os.unlink(listy)
        os.unlink(good)


def test_bench_check_malformed_cells_and_times():
    # Non-dict cell, cell without keys, and a non-numeric time_ms: all
    # must degrade to warnings while the good cell is still compared.
    messy = write_tmp(bench_doc([
        "not-a-cell",
        {"time_ms": 1.0},
        {"benchmark": "b", "policy": "q", "time_ms": "fast",
         "aborted": False},
        GOOD_CELL,
    ]), ".json")
    cand = write_tmp(bench_doc([
        {"benchmark": "b", "policy": "q", "time_ms": 1.0, "aborted": False},
        dict(GOOD_CELL, time_ms=105.0),
    ]), ".json")
    try:
        proc = run(BENCH_CHECK, messy, cand)
        assert_no_traceback(proc, "malformed cells")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "warning:" in proc.stdout
        assert "compared 1 cells" in proc.stdout
    finally:
        os.unlink(messy)
        os.unlink(cand)


def test_bench_check_detects_a_real_regression():
    base = write_tmp(bench_doc([GOOD_CELL]), ".json")
    cand = write_tmp(bench_doc([dict(GOOD_CELL, time_ms=200.0)]), ".json")
    try:
        proc = run(BENCH_CHECK, base, cand, "--threshold", "20")
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


def test_bench_check_new_policy_column_collapses_to_one_warning():
    # A policy absent from the baseline entirely (a newly registered
    # analysis, e.g. the cs columns) must produce ONE "new column" warning
    # — not a per-benchmark message storm, not a KeyError, and never a
    # mis-match through the fallback_from aliasing.
    base = write_tmp(bench_doc([GOOD_CELL]), ".json")
    cand = write_tmp(bench_doc([
        GOOD_CELL,
        {"benchmark": "b", "policy": "cs", "time_ms": 10.0,
         "aborted": False},
        {"benchmark": "b2", "policy": "cs", "time_ms": 11.0,
         "aborted": False},
        # An existing policy on a new benchmark keeps the per-cell message.
        {"benchmark": "b3", "policy": "p", "time_ms": 12.0,
         "aborted": False},
    ]), ".json")
    try:
        proc = run(BENCH_CHECK, base, cand)
        assert_no_traceback(proc, "new policy column")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "new column 'cs' (2 cell(s), no baseline)" in proc.stdout, \
            proc.stdout
        assert "('b', 'cs')" not in proc.stdout  # no per-cell storm
        assert "('b2', 'cs')" not in proc.stdout
        assert "cell ('b3', 'p') new in candidate" in proc.stdout
    finally:
        os.unlink(base)
        os.unlink(cand)


# --- the analysis binaries ---
#
# These need the built binaries; ctest passes them via --lint, --hybridpt
# and --fuzz (see tests/CMakeLists.txt).  Standalone runs without them
# skip these checks.

BINS = {"lint": os.environ.get("HYBRIDPT_LINT_BIN", ""),
        "hybridpt": os.environ.get("HYBRIDPT_BIN", ""),
        "fuzz": os.environ.get("HYBRIDPT_FUZZ_BIN", ""),
        "table1": os.environ.get("HYBRIDPT_TABLE1_BIN", ""),
        "serve": os.environ.get("HYBRIDPT_SERVE_BIN", ""),
        "replay": os.environ.get("HYBRIDPT_REPLAY_BIN", "")}
EXAMPLE_PTIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "examples", "programs",
                            "dispatch.ptir")


def _bin(name):
    path = BINS[name]
    return path if path and os.path.exists(path) else None


def _lint():
    return _bin("lint")


def run_bin(binary, *args, env=None):
    # stdin is closed so that a daemon which wrongly starts sees EOF and
    # exits instead of waiting for requests.
    return subprocess.run([binary] + list(args), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120,
                          env=env)


def test_lint_compare_unknown_policy_has_distinct_exit_code():
    # Regression: --compare used to conflate "unknown policy name" with
    # every other failure under exit 1.  Unknown names now exit 3 with a
    # message naming the policy, so CI can tell a typo from a genuine
    # monotonicity violation (exit 2).
    lint = _lint()
    if not lint:
        print("skip: hybridpt-lint binary not provided (--lint)")
        return
    proc = run_bin(lint, "--compare", "frobnicate,insens", EXAMPLE_PTIR)
    assert_no_traceback(proc, "unknown compare policy")
    assert proc.returncode == 3, (proc.returncode, proc.stderr)
    assert "unknown policy 'frobnicate'" in proc.stderr, proc.stderr


def test_lint_compare_known_pair_is_not_conflated():
    # A real BASE,REFINED pair (the cut-shortcut gate pair: cs refines
    # S-cs) must never hit the unknown-name path; the gate passes with
    # exit 0 on the examples corpus.
    lint = _lint()
    if not lint:
        print("skip: hybridpt-lint binary not provided (--lint)")
        return
    proc = run_bin(lint, "--compare", "S-cs,cs", EXAMPLE_PTIR)
    assert_no_traceback(proc, "known compare pair")
    assert "unknown policy" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, (proc.returncode,
                                  proc.stdout + proc.stderr)


# --- strict numeric flags ---
#
# Values the shared parser (support/ParseInt.h) must reject: not a
# number, a sign, whitespace, trailing bytes, and one past UINT64_MAX.
# Each is rejected before any solve or thread starts, so a value that
# would be huge if it were accepted is safe to try here.
BAD_NUMBERS = ["abc", "", "-1", "+3", " 3", "3x", "18446744073709551616"]


def test_hybridpt_huge_deadline_does_not_cancel_at_once():
    # Before: the deadline overflowed the clock into the past, so the run
    # was cancelled at its first guard poll (luindex is large enough to
    # reach one; the example programs finish before it).
    hybridpt = _bin("hybridpt")
    if not hybridpt:
        print("skip: hybridpt binary not provided (--hybridpt)")
        return
    proc = run_bin(hybridpt, "--deadline-ms", "18446744073709551615",
                   "luindex")
    assert proc.returncode == 0, proc.stderr
    assert "ABORTED" not in proc.stdout, proc.stdout


# Thread-count flags get only values that no parser, strict or lax, can
# read as a large count: a rejection test must never start thousands of
# threads, even against a binary that fails to reject.
BAD_COUNTS = ["abc", "", "+3", " 3", "3x", "0"]


def assert_rejected(proc, code, flag, context):
    assert_no_traceback(proc, context)
    assert proc.returncode == code, (context, proc.returncode,
                                     proc.stdout[-300:], proc.stderr[-300:])
    assert flag in proc.stderr, (context, proc.stderr[-300:])


# The one bad-flag-value corpus (checks/Cli.h parses every flag below):
# per tool, the arguments around the flag under test, the documented usage
# exit code, and the flags with the values each must reject.  The guard
# flags are shared by hybridpt, hybridpt-lint and hybridpt-serve.
GUARD_FLAGS = ("--budget", "--max-facts", "--max-memory-mb", "--deadline-ms")
# A megabyte count whose byte budget (MB * 10^6) would wrap.
WRAPPING_MB = "18446744073709551"
BAD_FLAG_TOOLS = {
    "hybridpt": {"code": 1, "before": [], "after": [EXAMPLE_PTIR],
                 "numbers": GUARD_FLAGS + ("--threads",), "counts": ()},
    "lint": {"code": 1, "before": [], "after": [EXAMPLE_PTIR],
             "numbers": GUARD_FLAGS, "counts": ()},
    "serve": {"code": 2, "before": ["--program", EXAMPLE_PTIR], "after": [],
              "numbers": GUARD_FLAGS + ("--queue", "--cache",
                                        "--retry-after-ms"),
              "counts": ("--workers",)},
    "table1": {"code": 1, "before": [], "after": ["luindex"],
               "numbers": (), "counts": ("--threads",)},
}


def test_bad_flag_values_are_reported_one_way():
    # Before: `hybridpt-lint --budget abc` printed only the usage text,
    # `table1_main luindex --json` said "unknown benchmark '--json'", and
    # each tool worded a bad value its own way.  Now a bad or missing
    # value names the flag on stderr and ends in the tool's usage exit
    # code, before any solve or thread starts.
    ran = False
    for tool, spec in sorted(BAD_FLAG_TOOLS.items()):
        binary = _bin(tool)
        if not binary:
            print("skip: %s binary not provided (--%s)" % (tool, tool))
            continue
        ran = True
        out = os.path.join(tempfile.mkdtemp(), "cells.json")
        before = spec["before"] + (["--json", out] if tool == "table1"
                                   else [])
        code = spec["code"]
        cases = [(f, bad) for f in spec["numbers"] for bad in BAD_NUMBERS]
        # Counts skip "0" where it is valid (table1: hardware threads).
        cases += [(f, bad) for f in spec["counts"] for bad in BAD_COUNTS
                  if not (tool == "table1" and bad == "0")]
        if "--max-memory-mb" in spec["numbers"]:
            cases.append(("--max-memory-mb", WRAPPING_MB))
        for flag, bad in cases:
            proc = run_bin(binary, *before, flag, bad, *spec["after"])
            context = "%s %s %r" % (tool, flag, bad)
            assert_rejected(proc, code, flag, context)
            assert "bad value" in proc.stderr, (context, proc.stderr)
        # A value-taking flag at the end of the line has no value.
        for flag in spec["numbers"] + spec["counts"] + (
                ("--json",) if tool == "table1" else ()):
            proc = run_bin(binary, *before, *spec["after"], flag)
            context = "%s %s (missing value)" % (tool, flag)
            assert_rejected(proc, code, flag, context)
            assert "needs a value" in proc.stderr, (context, proc.stderr)
        assert not os.path.exists(out), ("table1 wrote JSON", out)
    # A choice flag with a value outside its set names the flag, the value
    # and the allowed values on one line, not the usage block.
    lint = _lint()
    if lint:
        for flag, bad, allowed in (("--format", "xml", "(text, jsonl, sarif)"),
                                   ("--fail-on", "bogus",
                                    "(note, warning, error)")):
            proc = run_bin(lint, flag, bad, EXAMPLE_PTIR)
            context = "lint %s %r" % (flag, bad)
            assert_rejected(proc, 1, flag, context)
            assert proc.stderr == "hybridpt-lint: unknown %s '%s' %s\n" % (
                flag, bad, allowed), (context, proc.stderr)
    if not ran:
        return
    # Control: well-formed values still run.
    hybridpt = _bin("hybridpt")
    if hybridpt:
        proc = run_bin(hybridpt, "--budget", "0", "--max-facts", "0",
                       "--max-memory-mb", "0", "--deadline-ms", "0",
                       "--threads", "1", EXAMPLE_PTIR)
        assert proc.returncode == 0, proc.stderr
        assert "ABORTED" not in proc.stdout, proc.stdout
    lint = _lint()
    if lint:
        proc = run_bin(lint, "--budget", "0", "--max-facts", "0",
                       "--max-memory-mb", "0", "--deadline-ms", "0",
                       EXAMPLE_PTIR)
        assert proc.returncode == 0, proc.stderr


def test_fuzz_rejects_bad_numeric_flags():
    fuzz = _bin("fuzz")
    if not fuzz:
        print("skip: hybridpt-fuzz binary not provided (--fuzz)")
        return
    for flag in ("--max-programs", "--budget-ms", "--deadline-ms",
                 "--solver-budget"):
        for bad in BAD_NUMBERS:
            proc = run_bin(fuzz, flag, bad, "--max-programs", "1",
                           "--quiet")
            assert_rejected(proc, 2, flag,
                            "hybridpt-fuzz %s %r" % (flag, bad))
    # A program count past uint32 used to truncate silently.
    proc = run_bin(fuzz, "--max-programs", "4294967296")
    assert_rejected(proc, 2, "--max-programs",
                    "hybridpt-fuzz --max-programs 2^32")


def test_replay_rejects_bad_flags():
    replay = _bin("replay")
    if not replay:
        print("skip: hybridpt-replay binary not provided (--replay)")
        return
    # --requests 1 keeps a run that wrongly starts short.
    base = ["--program", EXAMPLE_PTIR, "--requests", "1"]
    for bad in ("abc", "", "-0.5", "1.5", "nan", "inf", "0.5x", " 0.5"):
        proc = run_bin(replay, *base, "--fault-rate", bad)
        assert_rejected(proc, 2, "--fault-rate",
                        "hybridpt-replay --fault-rate %r" % bad)
    for flag in ("--seed", "--queue", "--deadline-ms", "--budget"):
        for bad in BAD_NUMBERS:
            proc = run_bin(replay, *base, flag, bad)
            assert_rejected(proc, 2, flag, "hybridpt-replay %s %r" % (flag,
                                                                    bad))
    for flag in ("--workers", "--concurrency"):
        for bad in BAD_COUNTS:
            proc = run_bin(replay, *base, flag, bad)
            assert_rejected(proc, 2, flag, "hybridpt-replay %s %r" % (flag,
                                                                    bad))


def test_table1_help_lists_benchmarks_and_options():
    # --help and -h are options, not benchmark names: the list goes to
    # stdout with exit 0.
    table1 = _bin("table1")
    if not table1:
        print("skip: table1_main binary not provided (--table1)")
        return
    for flag in ("--help", "-h"):
        proc = run_bin(table1, flag)
        assert_no_traceback(proc, flag)
        assert proc.returncode == 0, (flag, proc.returncode, proc.stderr)
        assert proc.stderr == "", (flag, proc.stderr)
        assert "luindex" in proc.stdout and "--threads N" in proc.stdout, (
            flag, proc.stdout)
    proc = run_bin(table1, "nosuchbench")
    assert_rejected(proc, 1, "nosuchbench", "table1_main nosuchbench")
    assert "luindex" in proc.stderr, proc.stderr


def test_table1_rejects_bad_environment():
    # Before: HYBRIDPT_BUDGET_MS=abc ran with "budget_ms": 0 and exit 0.
    table1 = _bin("table1")
    if not table1:
        print("skip: table1_main binary not provided (--table1)")
        return
    out = os.path.join(tempfile.mkdtemp(), "cells.json")
    cases = [("HYBRIDPT_BUDGET_MS", bad) for bad in BAD_NUMBERS]
    # No value that a lax parser could read as a huge run count.
    cases += [("HYBRIDPT_RUNS", bad)
              for bad in ("abc", "", "+3", "3x", "4294967296")]
    cases += [("HYBRIDPT_THREADS", bad) for bad in ("abc", "", "+3", "3x")]
    for var, bad in cases:
        env = dict(os.environ, HYBRIDPT_BUDGET_MS="0", HYBRIDPT_RUNS="1",
                   HYBRIDPT_THREADS="1")
        env[var] = bad
        proc = run_bin(table1, "--json", out, "luindex", env=env)
        assert_rejected(proc, 1, var, "table1_main %s=%r" % (var, bad))
        assert not os.path.exists(out), ("wrote JSON despite", var, bad)


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def test_hybridpt_report_goldens():
    # The stats, devirtualization and cast reports read the analysis
    # result's context-insensitive projection; their text is pinned.
    # Regenerate after auditing a diff:
    #   hybridpt --stats --devirt --casts --csv examples/programs/X.ptir
    #     > tests/golden/X.cli.txt
    hybridpt = _bin("hybridpt")
    if not hybridpt:
        print("skip: hybridpt binary not provided (--hybridpt)")
        return
    for name in ("dispatch", "factory"):
        ptir = os.path.join(os.path.dirname(EXAMPLE_PTIR), name + ".ptir")
        proc = run_bin(hybridpt, "--stats", "--devirt", "--casts", "--csv",
                       ptir)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(GOLDEN_DIR, name + ".cli.txt")) as f:
            want = f.read()
        assert proc.stdout == want, (name, proc.stdout)


def main():
    argv = sys.argv[1:]
    for flag, name in (("--lint", "lint"), ("--hybridpt", "hybridpt"),
                       ("--fuzz", "fuzz"), ("--table1", "table1"),
                       ("--serve", "serve"), ("--replay", "replay")):
        if flag in argv:
            BINS[name] = argv[argv.index(flag) + 1]
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print("PASS %s" % name)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (name, e))
    print("%d/%d passed" % (len(tests) - failed, len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
