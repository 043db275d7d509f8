"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig1-encode --seed 0 --seconds 10 --trace 0

Workloads: ``fig1-encode``, ``fig1-decode``, ``serve``, ``campaign``
(see ``LAYERS.md``).  The program is imported from ``src/`` of the same
checkout.  Lines before the last one are a human-readable table of the
workload's named figures; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the run repeats its passes with every layer seam
wrapped and reports per-layer self time and counts instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, printed by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("secondary_throughput", "1/s"),
    ("peak_rss_mb", "MB"),
)

_KERNEL_LAYERS = ("cost", "transform", "interp", "deblock")
#: (name, unit) of the per-layer metrics, printed by every traced run
#: (zero where the workload does not reach the layer).
PER_LAYER = tuple(
    [(f"kernels.{k}.{f}", u) for k in _KERNEL_LAYERS
     for f, u in (("self_s", "s"), ("calls", "count"))]
    + [
        ("me.search.self_s", "s"), ("me.search.calls", "count"),
        ("me.search.cost_calls_per_call", "ratio"),
        ("me.subpel.self_s", "s"), ("me.subpel.calls", "count"),
        ("me.subpel.interp_calls_per_call", "ratio"),
        ("entropy.self_s", "s"), ("entropy.calls", "count"),
        ("entropy.bits", "bit"), ("entropy.ns_per_bit", "ns/bit"),
        ("codecs.h264.cavlc.bits_per_block", "bit/block"),
        ("codecs.h264.deblock.self_s", "s"), ("codecs.h264.deblock.calls", "count"),
        ("codecs.control.self_s", "s"),
        ("sequences.self_s", "s"),
    ]
    + [(f"transport.{stage}.self_s", "s")
       for stage in ("packetize", "fec", "channel", "receive")]
    + [
        ("robustness.decode_stream.self_s", "s"),
        ("origin.loop.self_s", "s"),
        ("origin.cache.encodes", "count"), ("origin.cache.hit_rate", "ratio"),
        ("orchestrate.scheduler.self_s", "s"),
        ("orchestrate.artifacts.get.self_s", "s"),
        ("orchestrate.artifacts.commit.self_s", "s"),
        ("orchestrate.artifacts.hit_rate", "ratio"),
    ]
    + [(f"observe.store.{op}.{f}", u) for op in ("append", "query")
       for f, u in (("self_s", "s"), ("calls", "count"))]
    + [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
)


def import_program() -> None:
    """Import the program from ``src/`` of this checkout, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import repro.codecs  # noqa: F401
        import repro.orchestrate.scheduler  # noqa: F401
        import repro.origin.bench  # noqa: F401
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {error}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float) -> int:
    """Run passes until ``seconds`` have passed (and the minimum is met)."""
    start = time.perf_counter()
    passes = 0
    while passes < workload.min_passes or time.perf_counter() - start < seconds:
        workload.run_pass(passes)
        passes += 1
    return passes


def traced_metrics(workload, passes: int) -> dict:
    """Repeat the passes made so far with every seam wrapped; per-layer metrics.

    Coverage compares attributed self time with the traced passes' wall
    time; overhead compares the traced passes with the untraced ones in
    calibrated seconds, so that host-speed drift between them cancels.
    """
    import layers
    from tracer import Layer, Tracer

    tracer = Tracer()
    workload.tracer = tracer
    workload.timer.on_sample = tracer.exclude
    tracer.install(layers.seams())
    untraced_s = workload.calibrated_s
    try:
        wall, calibrated = workload.wall_s, workload.calibrated_s
        for index in range(passes):
            workload.run_pass(index)
        traced_wall = workload.wall_s - wall
        traced_s = workload.calibrated_s - calibrated
    finally:
        tracer.restore()
        workload.tracer = None
        workload.timer.on_sample = None

    def get(name: str) -> Layer:
        return tracer.layers.get(name) or Layer(name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for name, layer in tracer.layers.items():
        values[f"{name}.self_s"] = layer.self_s
        values[f"{name}.calls"] = float(layer.calls)
    search, subpel, entropy = get("me.search"), get("me.subpel"), get("entropy")
    cavlc = get("codecs.h264.cavlc")
    values.update({
        "me.search.cost_calls_per_call": ratio(search.nested, search.calls),
        "me.subpel.interp_calls_per_call": ratio(subpel.nested, subpel.calls),
        "entropy.bits": float(entropy.bits),
        "entropy.ns_per_bit": ratio(entropy.self_s * 1e9, entropy.bits),
        "codecs.h264.cavlc.bits_per_block": ratio(cavlc.bits, cavlc.calls),
        "trace.coverage": ratio(tracer.attributed_s(), traced_wall),
        "trace.overhead": ratio(traced_s, untraced_s) - 1.0,
    })
    values.update(workload.layer_counts())
    return {name: values.get(name, 0.0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    import inputs
    from workloads import WORKLOADS, Checks, Timer

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    checks = Checks()
    with Timer() as timer:
        _, _, import_s = timer.time(import_program)
        workload = WORKLOADS[args.workload](args.seed, checks, inputs.load_baseline(), timer)
        try:
            setups = []
            for _ in range(workload.setup_reps):
                start = timer.calibrated_s
                workload.setup()
                setups.append(timer.calibrated_s - start)
            setup_s = import_s + statistics.median(setups)
            passes = measure(workload, args.seconds)
            primary, secondary = workload.throughputs()
            figures = {name: (_freeze(value), unit)
                       for name, (value, unit) in workload.figures().items()}
            if args.trace:
                metrics = traced_metrics(workload, passes)
                units = dict(PER_LAYER)
            else:
                metrics = {
                    "setup_s": setup_s,
                    "throughput": primary.value(),
                    "secondary_throughput": secondary.value(),
                    "peak_rss_mb": peak_rss_mb(),
                }
                units = dict(END_TO_END)
        finally:
            workload.close()

    report(args, passes, figures, checks, setup_s)
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _freeze(value):
    """A Rate as (calibrated, wall-clock) values; other figures unchanged."""
    from workloads import Rate

    if isinstance(value, Rate):
        return value.value(), value.value(calibrated=False)
    return value


def report(args, passes: int, figures: dict, checks, setup_s: float) -> None:
    """The human-readable table: calibrated and wall-clock rates side by side."""
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"trace {args.trace}")
    print(f"  {'figure':<22} {'calibrated':>12} {'wall clock':>12}")
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    rows = dict(figures)
    rows["error_rate"] = (error_rate, "ratio")
    rows["setup_s"] = (setup_s, "s")
    rows["peak_rss_mb"] = (peak_rss_mb(), "MB")
    for name, (value, unit) in rows.items():
        calibrated, wall = value if isinstance(value, tuple) else (value, None)
        wall_text = "" if wall is None else f"{wall:.4f}"
        print(f"  {name:<22} {calibrated:>12.4f} {wall_text:>12} {unit}")
    print(f"  correct: {'yes' if checks.failed == 0 else 'NO'} "
          f"({checks.failed}/{checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
