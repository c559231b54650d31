"""The ``python -m repro lint`` and ``python -m repro analyze`` commands.

``lint`` runs the static passes — symbolic/enumerated pattern
verification plus the ``compute()`` AST lint — over built-in fixtures or
user code and prints findings as ``SEVERITY CODE [subject] message``
lines. The exit code is non-zero when any ERROR-severity finding (or,
under ``--strict``, any WARNING) is reported, so the command slots
directly into CI.

``analyze`` runs the kernel-readiness analyzer (see
:mod:`repro.analysis.classify` and docs/ANALYSIS.md): it lifts each
``compute()`` to the typed IR, infers effects/dtypes/footprints and
reports the assigned vectorization class with any DP4xx demotion
findings. ``--check-manifest`` compares the classes against a committed
expectations file (``ANALYZE_classes.json``) so CI fails when a code
change silently demotes an app to OPAQUE.
"""

from __future__ import annotations

import importlib
import json
from typing import List, Tuple

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.lint import lint_app
from repro.analysis.symbolic import verify_pattern
from repro.core.dag import Dag
from repro.errors import AnalysisError

__all__ = ["add_lint_parser", "cmd_lint", "add_analyze_parser", "cmd_analyze"]


def add_lint_parser(sub) -> None:
    p = sub.add_parser(
        "lint",
        help="statically verify DP patterns and lint compute() methods",
        description=__doc__,
    )
    p.add_argument(
        "--pattern",
        action="append",
        default=[],
        metavar="NAME",
        help="verify a built-in pattern (repeatable)",
    )
    p.add_argument(
        "--app",
        action="append",
        default=[],
        metavar="NAME",
        help="verify + lint a built-in application (repeatable)",
    )
    p.add_argument(
        "--module",
        action="append",
        default=[],
        metavar="MOD:ATTR",
        help=(
            "verify a user target: ATTR in module MOD may be a Dag "
            "instance, a zero-argument factory returning a Dag or an "
            "(app, dag) pair, or an app instance paired with a dag via "
            "a factory (repeatable)"
        ),
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="lint every built-in pattern and application (the default "
        "when no target is given)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat WARNING findings as errors for the exit code",
    )
    p.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip the static parallelism metrics",
    )
    p.set_defaults(fn=cmd_lint)


def _resolve_module_target(spec: str):
    if ":" not in spec:
        raise AnalysisError(
            f"--module takes MOD:ATTR, got {spec!r} (missing ':')"
        )
    mod_name, attr = spec.split(":", 1)
    try:
        mod = importlib.import_module(mod_name)
    except ImportError as exc:
        raise AnalysisError(f"cannot import module {mod_name!r}: {exc}")
    try:
        obj = getattr(mod, attr)
    except AttributeError:
        raise AnalysisError(f"module {mod_name!r} has no attribute {attr!r}")
    if callable(obj) and not isinstance(obj, Dag):
        obj = obj()
    return obj


def _gather(args) -> List[Tuple[str, object, object]]:
    """Resolve CLI targets to ``(subject, dag_or_None, app_or_None)``."""
    from repro.analysis import registry

    targets: List[Tuple[str, object, object]] = []
    patterns = list(args.pattern)
    apps = list(args.app)
    if args.all or not (patterns or apps or args.module):
        patterns = list(registry.pattern_names())
        apps = list(registry.app_names())
    for name in patterns:
        targets.append((f"pattern:{name}", registry.pattern_fixture(name), None))
    for name in apps:
        app, dag = registry.app_fixture(name)
        targets.append((f"app:{name}", dag, app))
    for spec in args.module:
        obj = _resolve_module_target(spec)
        if isinstance(obj, Dag):
            targets.append((spec, obj, None))
        elif (
            isinstance(obj, tuple)
            and len(obj) == 2
            and isinstance(obj[1], Dag)
        ):
            targets.append((spec, obj[1], obj[0]))
        else:
            raise AnalysisError(
                f"--module target {spec!r} resolved to {type(obj).__name__}; "
                "expected a Dag, an (app, dag) pair, or a factory for one"
            )
    return targets


def _print_report(report: AnalysisReport, verbose_metrics: bool) -> None:
    for f in report.findings:
        print(str(f))
    if verbose_metrics and report.metrics:
        depth = report.metrics.get("wavefront_depth")
        width = report.metrics.get("max_antichain_width")
        vec = report.metrics.get("wavefront_vector")
        bits = [f"method={report.method}"]
        if vec is not None:
            bits.append(f"wavefront_vector={vec}")
        if depth is not None:
            bits.append(f"depth={depth}")
        if width is not None:
            bits.append(f"width={width}")
        print(f"  {report.subject}: " + " ".join(bits))


def cmd_lint(args) -> int:
    try:
        targets = _gather(args)
    except AnalysisError as exc:
        print(f"ERROR DP106 [lint] {exc}")
        return 2

    fail_at = Severity.WARNING if args.strict else Severity.ERROR
    n_findings = 0
    failed = False
    for subject, dag, app in targets:
        report = verify_pattern(dag, metrics=not args.no_metrics, subject=subject)
        if app is not None:
            report.extend(lint_app(app, dag=dag, subject=subject))
        _print_report(report, verbose_metrics=not args.no_metrics)
        n_findings += len(report.findings)
        worst = report.max_severity
        if worst is not None and worst >= fail_at:
            failed = True

    verdict = "FAIL" if failed else "ok"
    print(
        f"lint: {len(targets)} target(s), {n_findings} finding(s) -> {verdict}"
    )
    return 1 if failed else 0


# -- the analyze command --------------------------------------------------------


def add_analyze_parser(sub) -> None:
    p = sub.add_parser(
        "analyze",
        help="kernel-readiness analysis: IR, effects, footprint, class",
        description=__doc__,
    )
    p.add_argument(
        "--app",
        action="append",
        default=[],
        metavar="NAME",
        help="analyze a built-in application (repeatable)",
    )
    p.add_argument(
        "--module",
        action="append",
        default=[],
        metavar="MOD:ATTR",
        help="analyze a user (app, dag) pair or zero-arg factory for one",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="analyze every built-in application (the default when no "
        "target is given)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of text",
    )
    p.add_argument(
        "--check-manifest",
        metavar="PATH",
        default=None,
        help="compare classes/demotion codes against a committed "
        "expectations manifest (ANALYZE_classes.json); exit 1 on drift",
    )
    p.add_argument(
        "--dump-kernel",
        action="store_true",
        help="print each non-OPAQUE target's generated compute_tile source",
    )
    p.add_argument(
        "--ir",
        action="store_true",
        help="print each liftable target's normalized IR",
    )
    p.set_defaults(fn=cmd_analyze)


def _gather_apps(args) -> List[Tuple[str, object, object]]:
    """Resolve analyze targets to ``(name, app, dag)``."""
    from repro.analysis import registry

    targets: List[Tuple[str, object, object]] = []
    apps = list(args.app)
    if args.all or not (apps or args.module):
        apps = list(registry.app_names())
    for name in apps:
        app, dag = registry.app_fixture(name)
        targets.append((name, app, dag))
    for spec in args.module:
        obj = _resolve_module_target(spec)
        if (
            isinstance(obj, tuple)
            and len(obj) == 2
            and isinstance(obj[1], Dag)
        ):
            targets.append((spec, obj[0], obj[1]))
        else:
            raise AnalysisError(
                f"--module target {spec!r} resolved to {type(obj).__name__}; "
                "analyze needs an (app, dag) pair or a factory for one"
            )
    return targets


def _analyze_one(name: str, app, dag, dump: bool) -> dict:
    """One target's analysis record (the JSON shape; text renders it),
    with the generated kernel's source when ``dump``."""
    from repro.analysis.codegen import build_autokernel
    from repro.core.tiling import PLANNED_TILE

    kernel, cls = build_autokernel(app, dag, subject=f"app:{name}")
    rec = {
        "class": cls.klass,
        "rank": list(cls.rank) if cls.rank is not None else None,
        "codes": sorted({f.code for f in cls.report.findings}),
        "findings": [
            {
                "code": f.code,
                "severity": f.severity.name,
                "message": f.message,
                "location": f.location,
            }
            for f in cls.report.findings
        ],
        "pads": list(kernel.pads) if kernel is not None else None,
        "error": any(
            f.severity >= Severity.ERROR for f in cls.report.findings
        ),
    }
    if dump and kernel is not None:
        fn = kernel.fn  # a slice kernel adds the variant interior tiles run
        dump_source = getattr(fn, "dump_source", lambda _tile: fn.source)
        rec["kernel_source"] = dump_source(PLANNED_TILE)
    if cls.ir is not None:
        rec["ir"] = cls.ir.pretty()
    return rec


def _check_manifest(path: str, records: dict) -> List[str]:
    """Differences between the committed expectations and this run."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = manifest.get("apps", manifest)
    drift: List[str] = []
    for name, rec in sorted(records.items()):
        exp = expected.get(name)
        if exp is None:
            drift.append(f"{name}: not in manifest (new app? update it)")
            continue
        if rec["class"] != exp.get("class"):
            drift.append(
                f"{name}: class {rec['class']} != expected {exp.get('class')}"
            )
        exp_codes = sorted(exp.get("codes", []))
        if rec["codes"] != exp_codes:
            drift.append(
                f"{name}: finding codes {rec['codes']} != expected {exp_codes}"
            )
    for name in sorted(set(expected) - set(records)):
        drift.append(f"{name}: in manifest but not analyzed")
    return drift


def cmd_analyze(args) -> int:
    try:
        targets = _gather_apps(args)
    except AnalysisError as exc:
        print(f"ERROR DP106 [analyze] {exc}")
        return 2

    records = {}
    for name, app, dag in targets:
        records[name] = _analyze_one(name, app, dag, args.dump_kernel)

    failed = any(rec["error"] for rec in records.values())
    drift: List[str] = []
    if args.check_manifest:
        try:
            drift = _check_manifest(args.check_manifest, records)
        except (OSError, ValueError) as exc:
            print(f"ERROR DP106 [analyze] cannot read manifest: {exc}")
            return 2

    if args.json:
        doc = {
            "apps": records,
            "drift": drift,
            "ok": not failed and not drift,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name, rec in sorted(records.items()):
            bits = [f"{name:20s} {rec['class']:20s}"]
            if rec["rank"] is not None:
                bits.append(f"rank={tuple(rec['rank'])}")
            if rec["pads"] is not None:
                bits.append(f"pads={tuple(rec['pads'])}")
            print(" ".join(bits))
            for f in rec["findings"]:
                loc = f" ({f['location']})" if f["location"] else ""
                print(f"    {f['severity']:7s} {f['code']} {f['message']}{loc}")
            if args.ir and "ir" in rec:
                print("  -- IR " + "-" * 58)
                for line in rec["ir"].splitlines():
                    print(f"  {line}")
            if "kernel_source" in rec:
                print("  -- generated kernel " + "-" * 44)
                for line in rec["kernel_source"].splitlines():
                    print(f"  {line}")
        for d in drift:
            print(f"DRIFT: {d}")
        n_opaque = sum(1 for r in records.values() if r["class"] == "OPAQUE")
        verdict = "FAIL" if (failed or drift) else "ok"
        print(
            f"analyze: {len(records)} app(s), {n_opaque} OPAQUE, "
            f"{len(drift)} drift(s) -> {verdict}"
        )
    return 1 if (failed or drift) else 0
