"""covertool benchmark: times whole CLI commands and, traced, each layer.

    python3 perfbench/run.py --workload star_oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A workload is a batch of user commands (see gen.py), each passed to
`covertool.cli.main` in this process, one at a time, with the
`ideal_power` and `irreducible_decomposition` caches cleared before
each, as a new process per command would have them.  Batches repeat
while another one still fits into --seconds (at least one runs), and
metrics are medians over batches.  Every output is checked outside the
timed region, and the first command is run once more to check that its
output is byte-identical.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s (sum of command latencies in a batch), cmd_max_s (the longest
command, by its median latency), setup_s (import covertool, generate
and write the inputs; median over several fresh processes) and
peak_rss_mb (ru_maxrss).  The three times are scaled to a nominal host
speed sampled as they run (see hostspeed.py); the line before gives the
unscaled batch times.  With --trace 1 untraced and traced batches
alternate, and it reports the per-layer metrics of spans.py and the
tracing overhead; the spans go to .perfbench_out/.  A command fails on
a non-zero exit code or a failed check; failures are counted in
`failed`, never fatal.  `--workload all` runs every workload in its own
process and prints a table, fail_frac included.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_PROBES = 11

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from hostspeed import NOMINAL_S, SpeedSampler, calibrate  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cmd_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"trace.overhead_frac": "ratio", "cli.output_bytes": "bytes"}


def import_covertool():
    """Import covertool from this checkout's src/, never from elsewhere."""
    if not (SRC / "covertool" / "__init__.py").is_file():
        sys.exit(f"perfbench: no covertool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("covertool.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: covertool imported from {cli.__file__}, not {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import covertool, then generate and write the inputs; timed."""
    start = perf_counter()
    import_covertool()
    commands = gen.WORKLOADS[workload](seed, workdir)
    return perf_counter() - start, commands


def probe_setup(workload: str, seed: int) -> float:
    """setup() in a fresh interpreter, as every user command pays it,
    scaled to the nominal host speed by calibration runs right after."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=60, cwd=ROOT,
    ).stdout
    return float(out.split()[-1])


def run_command(argv, speed=None) -> tuple[float, int | None, str]:
    """One command with cold caches: (seconds, exit code, stdout).

    The time `speed` spent sampling is not counted.  An exception inside
    covertool is reported and yields exit code None, so one failing
    command cannot stop the run.
    """
    from covertool import cli, monomials

    monomials.ideal_power.cache_clear()
    monomials.irreducible_decomposition.cache_clear()
    gc.collect()  # drop the previous command's garbage, as a new process would
    buf = io.StringIO()
    sampling = speed.spent if speed else 0.0
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = None
    seconds = perf_counter() - start - ((speed.spent - sampling) if speed else 0.0)
    return seconds, code, buf.getvalue()


def passes(command: gen.Command, code, out: str) -> bool:
    """Exit code 0 and the command's own output check."""
    if code != 0:
        return False
    try:
        return bool(command.check(out))
    except (ValueError, KeyError, TypeError):
        traceback.print_exc()
        return False


def run_batch(commands, tracer=None):
    """Every command once, in order: [(seconds, exit code, stdout)], and
    the latencies scaled to a nominal host speed (see hostspeed.py)."""
    results, windows = [], []
    with SpeedSampler(tracer) as speed:
        if tracer is not None:
            tracer.install()
        try:
            for k, command in enumerate(commands):
                if tracer is not None:
                    tracer.command = k
                first = len(speed.samples)
                results.append(run_command(command.argv, speed))
                windows.append((first, len(speed.samples)))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return results, speed.scale([r[0] for r in results], windows)


def failures(commands, results) -> int:
    return sum(not passes(c, code, out) for c, (_, code, out) in zip(commands, results))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        commands = gen.WORKLOADS[workload](seed, workdir)
        if trace:
            from spans import Tracer
        setup_samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
        plain, raw, tracers, layer_values = [], [], [], []
        attempted = failed = 0
        first_out = None
        start = perf_counter()
        while True:
            tracer = Tracer() if trace and len(tracers) < len(plain) else None
            results, scaled = run_batch(commands, tracer)
            failed_now = failures(commands, results)
            if tracer is None:
                plain.append(scaled)
                raw.append(sum(r[0] for r in results))
            else:
                tracers.append(tracer)
                values = tracer.metrics()
                values["associated.checks_failed"] = failed_now
                values["cli.output_bytes"] = sum(len(r[2].encode()) for r in results)
                values["trace.wall_s"] = sum(scaled)
                layer_values.append(values)
            if first_out is None:
                first_out = results[0][2]
            attempted += len(commands)
            failed += failed_now
            batches = len(plain) + len(tracers)
            elapsed = perf_counter() - start
            # Stop once another batch of average length would overrun.
            if plain and (tracers or not trace) and elapsed * (batches + 1) / batches > seconds:
                break
        # Determinism: the first command once more, byte for byte.
        _, code, again = run_command(commands[0].argv)
        attempted += 1
        failed += code != 0 or again != first_out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = statistics.median(sum(b) for b in plain)
    result = {
        "workload": workload,
        "seed": seed,
        "batch_s": raw,
        "scaled_batch_s": [sum(b) for b in plain],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": wall,
            "cmd_max_s": max(statistics.median(c) for c in zip(*plain)),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if trace:
        layers = {
            key: statistics.median(v[key] for v in layer_values)
            for key in layer_values[0]
        }
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / wall - 1
        result["metrics"] = layers
        with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for batch, t in enumerate(tracers):
                t.write(fh, batch)
        result["layer_shares"] = {
            layer: statistics.median(t.layer_shares().get(layer, 0.0) for t in tracers)
            for layer in tracers[0].layer_shares()
        }
    return result


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def report_line(result: dict) -> str:
    """The last stdout line: the result object the harness contract names."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in result["metrics"].items()
        },
    })


def run_all(args) -> int:
    """Each workload in a fresh process; one table row per metric."""
    results = {}
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    combined = {}
    for workload, res in results.items():
        rows = dict(res["metrics"])
        rows["fail_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        for name, metric in rows.items():
            print(f"{workload:14s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.setup_probe:
            parser.error("--setup-probe needs one workload")
        return run_all(args)
    if args.setup_probe:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        try:
            seconds = setup(args.workload, args.seed, workdir)[0]
            kernel = statistics.fmean(calibrate() for _ in range(4))
            print(seconds * NOMINAL_S / kernel)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    import_covertool()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = {k: v for k, v in result.items() if k != "metrics"}
    print(json.dumps(summary))
    print(report_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
