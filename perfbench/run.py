#!/usr/bin/env python3
"""Run one benchmark workload against the checkout this file lives in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed``; set-up is timed separately; the
measured phase lasts ``--seconds``; outputs are checked.  The report lists
every metric with its unit, a full record goes to ``perfbench/out/``, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.  A
traced run measures half its time untraced and half with span wrappers
installed around each layer's entry points, reports the per-layer figures
from the traced half and the difference between the halves as
``trace.overhead_pct``, and writes the spans to ``perfbench/out/``.
Layers a workload does not exercise report 0.

Exit status: 0 on success, 1 when a check fails (the JSON line then says
``"correct": false``), 2 when the checkout is incomplete (nothing printed
on standard output).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "train_dhmm_pos": "perfbench.train_dhmm_pos",
    "serve_inproc": "perfbench.serve_inproc",
    "serve_http": "perfbench.serve_http",
    "long_decode": "perfbench.long_decode",
}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program() -> dict:
    """Import ``repro`` from this checkout's ``src/`` and read the spec."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail_setup(f"no program sources at {src}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail_setup(f"missing {spec_path}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        _fail_setup(f"imported repro from {repro.__file__}, not from {src}")
    return json.loads(spec_path.read_text())


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input-size multiplier (1.0 = documented sizes; the smoke test shrinks it)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS thread, set before numpy loads (the HTTP server child
    # inherits it): on a shared 2-core machine OpenBLAS worker threads made
    # repeat runs of the same seed differ by 20%.  The fingerprint records it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    spec = _load_program()

    from perfbench import record
    from perfbench.common import Context
    from perfbench.spans import Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    out_dir = ROOT / "perfbench" / "out"
    ctx = Context(args.seed, args.seconds, args.scale, ROOT, out_dir)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()

    workload = module.Workload(ctx)
    try:
        setup_times = workload.setup()
        checks = workload.startup_checks()
        passes = []
        if args.trace:
            passes.append(workload.measure(args.seconds / 2, None))
            tracer = Tracer()
            passes.append(workload.measure(args.seconds / 2, tracer))
        else:
            passes.append(workload.measure(args.seconds, None))
        rss = workload.peak_rss_mb()
        # Set up again at the end, so one slow spell of a shared machine
        # does not decide setup_s.
        setup_times += workload.setup()
    finally:
        workload.close()
    untraced, run = passes[0], passes[-1]
    for p in passes:
        checks.extend(p.checks)

    end_to_end = {
        "setup_s": record.summary(setup_times),
        "peak_rss_mb": record.summary([rss]),
        **untraced.end_to_end,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(end_to_end) != sorted(expected):
        raise RuntimeError(f"workload reported {sorted(end_to_end)}, spec has {sorted(expected)}")
    if args.trace:
        layer = dict(run.layer_raw)
        layer["trace.overhead_pct"] = (run.overhead_basis / untraced.overhead_basis - 1) * 100
        own = set(module.LAYER_METRICS) | {"trace.overhead_pct"}
        if set(layer) != own or not own <= set(units):
            raise RuntimeError(f"layer metrics {sorted(layer)} do not match {sorted(own)}")
        reported = {m["name"]: float(layer.get(m["name"], 0.0)) for m in spec["per_layer"]}
        tracer.write(out_dir / f"{tag}.spans.jsonl")
        self_s = tracer.self_times()
        span_totals = {
            name: {"calls": len(d), "total_ms": sum(d) * 1e3, "self_ms": self_s[name] * 1e3}
            for name, d in tracer.durations().items()
        }
    else:
        reported = {name: end_to_end[name]["value"] for name in expected}

    phases = {}
    for i, p in enumerate(passes):
        prefix = "untraced." if args.trace and i == 0 else ""
        for name, phase in p.phases.items():
            phases[prefix + name] = phase.as_dict()
    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    correct = all(c["ok"] for c in checks)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, s in end_to_end.items():
        print(f"  {name:<24} {s['value']:>14.6g} {units[name]:<9} "
              f"(samples {s['n']}: median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for name, (value, unit) in untraced.named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    if args.trace:
        for name, value in reported.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, p in phases.items():
        print(f"  phase {name}: attempted {p['attempted']} succeeded {p['succeeded']} "
              f"failed {p['failed']} {p['errors'] or ''}")
    for c in checks:
        print(f"  check {c['check']}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}")

    record.write_json(
        out_dir / f"{tag}.json",
        {
            "workload": args.workload,
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "scale": args.scale,
            "fingerprint": record.fingerprint(ROOT, args.seed),
            "inputs": workload.inputs(),
            "metrics": {
                name: {**s, "unit": units[name]} for name, s in end_to_end.items()
            },
            "named_metrics": {
                n: {"value": v, "unit": u} for n, (v, u) in untraced.named.items()
            },
            "per_layer": reported if args.trace else None,
            "spans": span_totals if args.trace else None,
            "phases": phases,
            "checks": checks,
            "detail": [p.detail for p in passes],
            "wall_s": time.perf_counter() - started,
        },
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
