#!/usr/bin/env python3
"""The overhead ledger: the repo's one benchmark (see README.md beside this).

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py                # every workload, untraced
    python3 benchmarks/ledger/run.py --trace 1      # every workload, per-layer
    python3 benchmarks/ledger/run.py --aa K         # K runs each: spreads vs bounds
    python3 benchmarks/ledger/run.py --quick        # toy sizes: does it still run?

Every workload runs in fresh child processes of its own (this file,
re-entered with ``--child-out``) under a pinned allocator and thread
environment; results are checked against ``repro.native``; every metric
is printed by name with its unit, and the last line of a ``--workload``
run is the one JSON object ``BENCHMARK.json``'s contract asks for. The
metric catalogue (names, units, directions, bounds) is read from
``BENCHMARK.json`` — there is no second copy here.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: the noise controls every workload child starts under (see README.md):
#: glibc keeps freed result-sized arrays instead of handing the pages back
#: (no mmap for big blocks, no trim), so successive solves do not alternate
#: between a first-touch mode and a warm mode; BLAS/OpenMP stay off the
#: second core; str hashing is fixed
PINNED_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "68719476736",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: share of ``--seconds`` a traced run spends on its traced/untraced window
#: (the rest of its time goes to the ladder's fixed repeats)
TRACED_WINDOW_SHARE = 0.4
#: all children of one run share this budget; past it the run has no result
RUN_TIMEOUT_S = 170.0
DEFAULT_SEED = 7


class BenchError(RuntimeError):
    """No result could be produced (as opposed to: a result with failures)."""


# -- the child: one workload in one fresh process -------------------------------------
def child_main(args: argparse.Namespace) -> int:
    started = float(os.environ["LEDGER_T0"])
    from procs import disable_thp

    thp_off = disable_thp()  # before NumPy allocates anything
    import numpy

    from spans import SpanRecorder
    from workloads import make_workload

    wl = make_workload(args.workload, OUT)
    doc: Dict[str, Any] = {
        "workload": args.workload, "numpy": numpy.__version__, "thp_disabled": thp_off,
    }
    ladder_errors: List[str] = []
    try:
        wl.setup(args.seed, args.quick)
        # child-process start to end of the checked warm-up
        doc["setup_s"] = time.time() - started
        if not args.setup_only:
            if args.trace:
                from layers import run_ladder

                spans = SpanRecorder()
                window = wl.measure(
                    args.seconds * TRACED_WINDOW_SHARE, spans, args.quick
                )
                doc["end_to_end"] = wl.end_to_end(window)
                doc["per_layer"], doc["rung_samples"], ladder_errors = run_ladder(
                    wl, window, spans, args.quick
                )
                doc["trace_file"] = args.child_out.replace(".json", ".trace.json")
                spans.write_chrome(
                    doc["trace_file"],
                    {"workload": args.workload, "seed": args.seed, "quick": args.quick},
                )
            else:
                window = wl.measure(args.seconds, None, args.quick)
                doc["end_to_end"] = wl.end_to_end(window)
            doc["samples"] = [dataclasses.asdict(s) for s in window["samples"]]
    finally:
        problems = wl.close()
    doc["attempted"] = wl.attempted
    # a workload that leaves processes or segments behind fails as a whole
    doc["failed"] = wl.attempted if problems else wl.failed
    doc["errors"] = wl.errors + ladder_errors + problems
    with open(args.child_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


# -- the driver ---------------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def host_info() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="latin1") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": commit,
        "pinned_env": PINNED_ENV,
        "cpu_pinning": "workload child: first allowed CPU; serve's server tree: last",
    }


def spawn_child(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool,
    setup_only: bool, deadline: float,
) -> Dict[str, Any]:
    """Run one child to completion and return the document it wrote."""
    from procs import session_members

    os.makedirs(OUT, exist_ok=True)
    stamp = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    result_path = os.path.join(OUT, stamp + ".json")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--child-out", result_path,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    cmd += ["--quick"] if quick else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    with open(os.path.join(OUT, f"{workload}.log"), "ab") as log:
        env["LEDGER_T0"] = repr(time.time())
        # its own session: everything the workload starts can be found,
        # and on a timeout stopped, as one group
        child = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=log, stderr=log, start_new_session=True
        )
        try:
            code: Optional[int] = child.wait(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the child has checked its own tree by now; whatever is still
            # in the session (a resource tracker winding down) goes here
            patience = time.monotonic() + 5.0
            while session_members(child.pid) and time.monotonic() < patience:
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.poll()
                time.sleep(0.02)
            child.wait()
    if code is None:
        raise BenchError(f"{workload}: run exceeded {RUN_TIMEOUT_S:.0f}s and was killed")
    if code != 0 or not os.path.exists(result_path):
        raise BenchError(
            f"{workload}: child exited with code {code}; see {OUT}/{workload}.log"
        )
    with open(result_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.unlink(result_path)
    return doc


def run_workload(
    spec: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool,
    quick: bool = False,
) -> Dict[str, Any]:
    """All children of one (workload, seed) run, folded into one record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    docs = []
    if not trace and not quick:
        docs = [
            spawn_child(workload, seed, seconds, False, False, True, deadline)
            for _ in range(SETUPS - 1)
        ]
    # quick mode folds both invocations into the traced child, whose
    # untraced half yields the end-to-end numbers too
    main = spawn_child(workload, seed, seconds, trace or quick, quick, False, deadline)
    docs.append(main)
    setups = [d["setup_s"] for d in docs]
    end_to_end = dict(main["end_to_end"], setup_s=statistics.median(setups))
    per_layer = None
    if "per_layer" in main:
        known = {m["name"] for m in spec["per_layer"]}
        stray = sorted(set(main["per_layer"]) - known)
        if stray:
            raise BenchError(f"{workload}: metrics missing from BENCHMARK.json: {stray}")
        # layers this workload does not exercise read 0 in its traced run
        per_layer = {name: main["per_layer"].get(name, 0.0) for name in sorted(known)}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "quick": quick,
        "unusable_for_claims": quick,
        "host": dict(host_info(), numpy=main["numpy"], thp_disabled=main["thp_disabled"]),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "errors": [e for d in docs for e in d["errors"]],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "measured_layers": sorted(main.get("per_layer", {})),
        "setup_samples_s": setups,
        "sample_count": len(main["samples"]),
        "samples": main["samples"],
        "rung_samples": main.get("rung_samples"),
        "trace_file": main.get("trace_file"),
    }
    kind = "quick" if quick else f"trace{int(trace)}"
    path = os.path.join(OUT, f"{workload}-seed{seed}-{kind}-{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    record["record_file"] = path
    return record


def units_of(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


def print_metrics(record: Dict[str, Any], spec: Dict[str, Any], section: str) -> None:
    units = units_of(spec, section)
    label = " [--quick: unusable for claims]" if record["quick"] else ""
    for name, value in record[section].items():
        homed = section == "end_to_end" or name in record["measured_layers"]
        mark = "" if homed else "  (not this workload's layer)"
        print(
            f"{record['workload']:>22}  {name:<34} {value:>16.6g} "
            f"{units[name]}{mark}{label}"
        )


def contract_line(record: Dict[str, Any], spec: Dict[str, Any], section: str) -> str:
    units = units_of(spec, section)
    return json.dumps(
        {
            "correct": record["failed"] == 0 and not record["errors"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": record[section][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def report(record: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> None:
    section = "per_layer" if trace else "end_to_end"
    print_metrics(record, spec, section)
    for err in record["errors"]:
        print(f"{record['workload']:>22}  FAILED: {err}")
    files = f"record {os.path.relpath(record['record_file'], ROOT)}"
    if record["trace_file"]:
        files += f"; trace {os.path.relpath(record['trace_file'], ROOT)}"
    print(
        f"{record['workload']:>22}  attempted {record['attempted']}, "
        f"failed {record['failed']}, {record['sample_count']} timed samples; {files}"
    )
    print(contract_line(record, spec, section), flush=True)


def spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, the driver's own measure of run-to-run noise."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(spec: Dict[str, Any], workloads: List[str], runs: int, seed: int, seconds: float) -> int:
    """``runs`` same-commit runs per workload, each on another seed."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = units_of(spec, "end_to_end")
    doc: Dict[str, Any] = {"host": None, "runs": runs, "seconds": seconds, "workloads": {}}
    over = failed = 0
    for workload in workloads:
        records = [
            run_workload(spec, workload, seed + k, seconds, trace=False)
            for k in range(runs)
        ]
        doc["host"] = records[0]["host"]
        failed += sum(r["failed"] for r in records)
        table = {}
        for name in units:
            values = [r["end_to_end"][name] for r in records]
            row = {
                "values": values,
                "min": min(values),
                "median": statistics.median(values),
                "max": max(values),
                "spread": spread(values),
                "bound": bounds[name],
            }
            table[name] = row
            # setup_s is exempt from the spread rule (its medians are not)
            bad = name != "setup_s" and row["spread"] > row["bound"]
            over += bad
            print(
                f"{workload:>22}  {name:<12} min {row['min']:<10.5g} "
                f"median {row['median']:<10.5g} max {row['max']:<10.5g} {units[name]:<3} "
                f"spread {row['spread']:6.2%}  bound {row['bound']:4.0%}"
                + ("  OVER BOUND" if bad else ""),
                flush=True,
            )
        doc["workloads"][workload] = {
            "seeds": [r["seed"] for r in records],
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "sample_counts": [r["sample_count"] for r in records],
            "per_solve_spread": [
                spread([s.get("wall_s", s.get("latency_s")) for s in r["samples"]])
                for r in records
            ],
            # per-solve arrays of the solver workloads, so another window
            # statistic can be tried on the same runs (serve's ~830 per
            # run stay in the out/ records)
            "per_solve_samples": [
                {
                    key: [s[key] for s in r["samples"]]
                    for key in ("wall_s", "cpu_s", "native_s")
                }
                for r in records
                if "wall_s" in r["samples"][0]
            ],
            "metrics": table,
        }
    path = os.path.join(OUT, f"aa-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"A/A set written to {os.path.relpath(path, ROOT)}: "
          f"{over} metric(s) over bound, {failed} failed operation(s)")
    return 1 if over or failed else 0


def run_quick(spec: Dict[str, Any], workloads: List[str], seed: int) -> int:
    """Every workload and every rung at toy size: proves the benchmark
    still runs against changed APIs. Its numbers are not evidence."""
    measured: set = set()
    failed = 0
    for workload in workloads:
        record = run_workload(spec, workload, seed, 1.0, trace=True, quick=True)
        print_metrics(record, spec, "end_to_end")
        print_metrics(record, spec, "per_layer")
        for err in record["errors"]:
            print(f"{workload:>22}  FAILED: {err}")
        failed += record["failed"] + len(record["errors"])
        measured |= set(record["measured_layers"])
    unmeasured = sorted({m["name"] for m in spec["per_layer"]} - measured)
    if len(workloads) == len(spec["workloads"]) and unmeasured:
        print(f"no workload's ladder measures: {unmeasured}")
        failed += len(unmeasured)
    print("--quick: toy sizes, 2 samples each; these numbers are unusable for claims")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="K", help="K runs per workload, spreads vs bounds")
    parser.add_argument("--quick", action="store_true", help="toy sizes; unusable for claims")
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_out:
        return child_main(args)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    try:
        if args.quick:
            return run_quick(spec, workloads, args.seed)
        if args.aa:
            return run_aa(spec, workloads, args.aa, args.seed, seconds)
        for workload in workloads:
            record = run_workload(spec, workload, args.seed, seconds, bool(args.trace))
            report(record, spec, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
