"""Benchmark harness for the ``indist`` CLI.

    python3 benchmark/run.py --workload {optics,qset,bridge} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI under test is ``src/indist``.
With ``--trace 0`` the harness runs ``python -m indist`` as child processes,
one at a time in a closed loop (one client), repeating the workload's pass
for ``--seconds`` and reporting the end-to-end metrics.  With ``--trace 1``
it calls ``cli.main`` in-process with the layer functions wrapped (see
``tracing.py``) and reports the per-layer metrics.  Either way the last line
of stdout is one JSON object; metric names and units come from
``BENCHMARK.json``.  See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_trace"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_REPEATS = 5
START_REPEATS = 5
CHILD_TIMEOUT_S = 150

#: Layers each workload must leave alone; any call into them is a failure.
IDLE = {
    "optics": ("cli.parse_", "quasiset.", "qmetric."),
    "qset": ("cli.parse_pid_table", "onephoton.", "zwm.", "qmetric."),
    "bridge": ("cli.parse_universe", "onephoton.", "zwm.",
               "quasiset.permutation_theorem_check", "quasiset.indist_class",
               "quasiset.check_equivalence_axioms", "quasiset.ext_identity"),
}


class Tally:
    """Attempted and failed commands, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{what}: {reason}")

    def judge(self, argv, returncode, stdout: str, stderr: str, check) -> None:
        self.attempted += 1
        what = argv[0]
        if returncode != 0:
            self.fail(what, f"exit code {returncode}: {stderr.strip()[-300:]}")
        elif "Traceback" in stderr:
            self.fail(what, f"traceback on stderr: {stderr.strip()[-300:]}")
        else:
            try:
                check(stdout)
            except Exception as exc:  # any check error means the output is wrong
                self.fail(what, f"{type(exc).__name__}: {exc}")


def _check_version(text: str) -> None:
    if not text.startswith("indist "):
        raise workloads.BadOutput(f"--version printed {text!r}")


def run_child(argv, tally: Tally, check) -> float:
    """Run ``python -m indist argv`` to completion; return its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "indist", *argv], cwd=ROOT, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = None
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.returncode is None:  # timed out or interrupted
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - start
    if out is None:
        tally.attempted += 1
        tally.fail(argv[0], f"no exit within {CHILD_TIMEOUT_S} s")
        return wall
    tally.judge(argv, proc.returncode, out.decode("utf-8", "replace"),
                err.decode("utf-8", "replace"), check)
    return wall


def run_inprocess(cli, argv, tally: Tally, check) -> tuple[float, int]:
    """Call ``cli.main(argv)``; return its CPU seconds and stdout bytes."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        rc = cli.main(list(argv), stdout=out, stderr=err)
    except (Exception, SystemExit):
        rc = None
        err.write(traceback.format_exc())
    cpu_s = time.process_time() - start
    text = out.getvalue()
    tally.judge(argv, rc, text, err.getvalue(), check)
    return cpu_s, len(text.encode("utf-8"))


def tail_percentile(values: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_run(args, workdir: Path, tally: Tally) -> dict[str, float]:
    """Setups, then passes until ``--seconds`` is up, costed in reference seconds.

    The harness, the commands and the speed reference share one CPU; see
    ``hostspeed.py`` for why costs are rescaled CPU seconds, not wall time.
    """
    with hostspeed.SpeedReference() as ref:
        setups = []
        ref.factor()
        for _ in range(SETUP_REPEATS):
            start = time.process_time() + _children_cpu_s()
            wl = workloads.generate(args.workload, args.seed, str(workdir))
            run_child(["--version"], tally, _check_version)
            setups.append(time.process_time() + _children_cpu_s() - start)
        setup_factor = ref.factor()
        print(f"sizes {json.dumps(wl.size)}")

        passes, walls = [], []
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline:
            ref.factor()
            start = _children_cpu_s()
            walls.append(sum(run_child(c.argv, tally, c.check) for c in wl.commands))
            passes.append((_children_cpu_s() - start) * ref.factor())
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    tail = tail_percentile(passes)
    print(f"passes {len(passes)}; pass_s min {min(passes):.4f} max {max(passes):.4f}"
          + (f"; p{tail[0]:g} {tail[1]:.4f}" if tail else "")
          + f"; wall s/pass median {statistics.median(walls):.4f}")
    return {
        "pass_s": statistics.median(passes),
        "setup_s": statistics.median(setups) * setup_factor,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def _inprocess_pass(cli, wl, tally: Tally) -> tuple[float, int]:
    cpu_s = out_bytes = 0
    for c in wl.commands:
        gc.collect()  # the previous command's garbage is not this one's cost
        s, b = run_inprocess(cli, c.argv, tally, c.check)
        cpu_s += s
        out_bytes += b
    return cpu_s, out_bytes


def _sample(cli, wl, tally: Tally, ref) -> tuple[dict[str, float], tracing.Tracer]:
    """One untraced then one traced in-process pass; the traced pass's metrics."""
    ref.factor()
    untraced = _inprocess_pass(cli, wl, tally)[0] * ref.factor()
    with tracing.Tracer() as tracer:
        traced, out_bytes = _inprocess_pass(cli, wl, tally)
    factor = ref.factor()
    metrics = tracer.metrics(factor)
    metrics["cli.out_bytes"] = float(out_bytes)
    metrics["trace.untraced_ms"] = untraced * 1e3
    metrics["trace.overhead_ms"] = (traced * factor - untraced) * 1e3
    return metrics, tracer


def traced_run(args, workdir: Path, tally: Tally) -> dict[str, float]:
    """In-process passes, untraced then traced, at full and half size."""
    full = workloads.generate(args.workload, args.seed, str(workdir))
    half = workloads.generate(args.workload, args.seed, str(workdir / "half"), scale=0.5)
    print(f"sizes {json.dumps(full.size)} half {json.dumps(half.size)}")
    sys.path.insert(0, str(SRC))
    from indist import cli

    if Path(cli.__file__).resolve().parent != SRC / "indist":
        raise RuntimeError(f"imported indist from {cli.__file__}, not from {SRC}")

    with hostspeed.SpeedReference() as ref:
        start_s = []
        for _ in range(START_REPEATS):
            ref.factor()
            before = _children_cpu_s()
            run_child(["--version"], tally, _check_version)
            start_s.append((_children_cpu_s() - before) * ref.factor())

        # One untraced pass per size first, so that neither side of the
        # traced-minus-untraced overhead pays for first-call allocation.
        _inprocess_pass(cli, full, tally)
        _inprocess_pass(cli, half, tally)
        samples: dict[str, list[float]] = {}
        half_samples: dict[str, list[float]] = {}
        deadline = time.perf_counter() + args.seconds
        while not samples or time.perf_counter() < deadline:
            metrics, tracer = _sample(cli, full, tally, ref)
            half_metrics, _ = _sample(cli, half, tally, ref)
            for store, values in ((samples, metrics), (half_samples, half_metrics)):
                for key, value in values.items():
                    store.setdefault(key, []).append(value)

    result = {key: statistics.median(values) for key, values in samples.items()}
    result["cli.start_ms"] = statistics.median(start_s) * 1e3
    for key, values in half_samples.items():
        at_half = statistics.median(values)
        # log-log slope between n/2 and n; 0 where the layer is idle.
        growth = math.log2(result[key] / at_half) if result[key] > 0 and at_half > 0 else 0.0
        result[f"{key}.growth"] = growth

    for key, value in result.items():
        if key.endswith(".calls") and key.startswith(IDLE[args.workload]) and value != 0:
            tally.fail("trace", f"idle layer {key[:-6]} was called {value:g} times")
    _write_spans(args, tracer)
    _print_dominant(result)
    return result


def _write_spans(args, tracer: tracing.Tracer) -> None:
    """Spans of the last traced full-size pass, in CPU ms from its first span."""
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    rows = [[name, parent, round((s - t0) * 1e3, 4), round((e - t0) * 1e3, 4)]
            for name, parent, s, e in tracer.spans]
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "parent", "start_ms", "end_ms"],
                                "spans": rows}) + "\n", encoding="utf-8")
    print(f"spans: {len(rows)} written to {path.relative_to(ROOT)}")


def _print_dominant(result: dict[str, float]) -> None:
    self_ms = {k[: -len(".self_ms")]: v for k, v in result.items() if k.endswith(".self_ms")}
    total = sum(self_ms.values())
    top = max(self_ms, key=self_ms.get)
    print(f"dominant layer: {top} ({100 * self_ms[top] / total:.1f} % of traced self time)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "indist" / "cli.py").is_file():
        print(f"benchmark: no CLI source at {SRC / 'indist'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"python {platform.python_version()} nproc {os.cpu_count()} "
          f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    tally = Tally()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            values = traced_run(args, workdir, tally)
        else:
            values = timed_run(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted} commands)")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
