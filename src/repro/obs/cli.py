"""``python -m repro obs`` — run instrumented workloads and inspect exports.

Four subcommands:

* ``obs run`` — execute a built-in app (Smith-Waterman, LPS, LCS) with
  tracing and metrics on, optionally watch it on the live dashboard, and
  export the run as Chrome trace JSON / JSONL / Prometheus text (with the
  causal summary embedded). The post-mortem summary printed at the end is
  rendered from the exported data, so it doubles as a faithfulness check
  of the export pipeline.
* ``obs summary <file>`` — re-render that summary from a trace file
  (``.json`` Chrome trace or ``.jsonl`` stream) without re-running.
* ``obs explain <file>`` — causal post-mortem: latency waterfall,
  weighted critical path, per-category attribution and straggler flags
  (see :mod:`repro.obs.causal`).
* ``obs diff <a> <b>`` — compare two traces category-by-category to
  answer "why is run B slower than run A?".

Examples::

    python -m repro obs run --app sw --size 64 --tile 1x1 --export trace.json
    python -m repro obs run --app lps --size 200 --tile 32x32 --live
    python -m repro obs summary trace.json
    python -m repro obs explain trace.json
    python -m repro obs diff fast.json slow.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Tuple

from repro.core.config import DPX10Config
from repro.core.trace import ExecutionTrace
from repro.obs.causal import causal_summary, diff_text, explain_text
from repro.obs.dashboard import LiveDashboard, summary_text
from repro.obs.export import (
    load_chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry, render_prometheus

__all__ = ["add_obs_parser", "parse_tile"]

_APPS = ("sw", "lps", "lcs")


def parse_tile(spec: Optional[str]) -> Optional[Tuple[int, int]]:
    """``--tile HxW`` (or ``N`` for ``NxN``); ``None`` stays planned."""
    if spec is None:
        return None
    h, _, w = spec.lower().partition("x")
    return (int(h), int(w or h))


def _random_text(seed: int, n: int, alphabet: str) -> str:
    from repro.util.rng import seeded_rng

    rng = seeded_rng(seed, "obs", alphabet, n)
    return "".join(alphabet[k] for k in rng.integers(0, len(alphabet), size=n))


def _run_app(name: str, size: int, seed: int, config: DPX10Config):
    if name == "sw":
        from repro.apps.smith_waterman import solve_sw

        s1 = _random_text(seed, size, "ACGT")
        s2 = _random_text(seed + 1, size, "ACGT")
        app, report = solve_sw(s1, s2, config)
        return report, f"best local score {int(app.best_score)}"
    if name == "lps":
        from repro.apps.lps import solve_lps

        s = _random_text(seed, size, "abcd")
        app, report = solve_lps(s, config)
        return report, f"LPS length {int(app.length)}"
    from repro.apps.lcs import solve_lcs

    x = _random_text(seed, size, "ACGT")
    y = _random_text(seed + 1, size, "ACGT")
    app, report = solve_lcs(x, y, config)
    return report, f"LCS length {int(app.length)}"


def _cmd_run(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    config = DPX10Config(
        nplaces=args.places,
        engine=args.engine,
        tile_shape=parse_tile(args.tile),
        trace=True,
        metrics_registry=registry,
        seed=args.seed,
    )
    if args.live:
        with LiveDashboard(registry, interval=args.interval):
            report, headline = _run_app(args.app, args.size, args.seed, config)
    else:
        report, headline = _run_app(args.app, args.size, args.seed, config)

    print(f"{args.app} ({args.size}x{args.size}, {args.engine}): {headline}")
    trace = report.trace if report.trace is not None else ExecutionTrace()
    causal = causal_summary(trace) if trace.events else None
    if args.export:
        write_chrome_trace(
            args.export, trace, metrics=report.metrics,
            report=report.to_dict(), causal=causal,
        )
        print(f"chrome trace -> {args.export}")
    if args.jsonl:
        n = write_jsonl(args.jsonl, trace, metrics=report.metrics, causal=causal)
        print(f"jsonl ({n} lines) -> {args.jsonl}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(report.metrics or {}))
        print(f"prometheus text -> {args.metrics_out}")
    print()
    print(summary_text(trace, report.metrics))
    return 0


def _load_trace(path: str):
    if path.endswith(".jsonl"):
        return read_jsonl(path)
    return load_chrome_trace(path)


def _print_paged(text: str) -> int:
    try:
        print(text)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; point stdout at devnull so
        # the interpreter's exit-time flush doesn't raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    trace, metrics = _load_trace(args.file)
    return _print_paged(summary_text(trace, metrics))


def _cmd_explain(args: argparse.Namespace) -> int:
    trace, _ = _load_trace(args.file)
    return _print_paged(explain_text(trace, top=args.top))


def _cmd_diff(args: argparse.Namespace) -> int:
    trace_a, _ = _load_trace(args.a)
    trace_b, _ = _load_trace(args.b)
    return _print_paged(diff_text(args.a, trace_a, args.b, trace_b))


def add_obs_parser(sub) -> None:
    """Register the ``obs`` subcommand on the ``python -m repro`` parser."""
    p = sub.add_parser(
        "obs", help="observability: instrumented runs, dashboards, exports"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    r = obs_sub.add_parser("run", help="run an app with tracing + metrics on")
    r.add_argument("--app", choices=_APPS, default="sw")
    r.add_argument("--size", type=int, default=64, help="problem size N (NxN-ish)")
    r.add_argument("--places", type=int, default=4)
    r.add_argument(
        "--engine", choices=["inline", "threaded", "mp"], default="threaded"
    )
    r.add_argument(
        "--tile", metavar="HxW", default=None,
        help="tile shape, e.g. 32x32 (default: planned by the runtime; "
        "1x1 is the per-vertex reference with per-cell events)",
    )
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--live", action="store_true", help="live dashboard on stderr")
    r.add_argument(
        "--interval", type=float, default=0.25, help="dashboard refresh seconds"
    )
    r.add_argument("--export", metavar="PATH", help="write Chrome trace JSON")
    r.add_argument("--jsonl", metavar="PATH", help="write JSONL event stream")
    r.add_argument(
        "--metrics-out", metavar="PATH", help="write Prometheus text exposition"
    )
    r.set_defaults(fn=_cmd_run)

    s = obs_sub.add_parser(
        "summary", help="post-mortem summary of an exported trace"
    )
    s.add_argument("file", help="Chrome trace .json or .jsonl export")
    s.set_defaults(fn=_cmd_summary)

    e = obs_sub.add_parser(
        "explain",
        help="causal post-mortem: waterfall, critical path, stragglers",
    )
    e.add_argument("file", help="Chrome trace .json or .jsonl export")
    e.add_argument(
        "--top", type=int, default=10,
        help="critical-path steps to print (default 10)",
    )
    e.set_defaults(fn=_cmd_explain)

    d = obs_sub.add_parser(
        "diff", help="compare two traces: why is B slower than A?"
    )
    d.add_argument("a", help="baseline trace (.json or .jsonl)")
    d.add_argument("b", help="comparison trace (.json or .jsonl)")
    d.set_defaults(fn=_cmd_diff)
