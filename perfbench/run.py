"""cpcodes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` runs every workload in turn.

With ``--trace 0`` one closed-loop client sends the workload's `cpc` commands
to fresh interpreters, one after another, for about ``--seconds``, checks
every output against the benchmark's own references, and reports the
end-to-end metrics. With ``--trace 1`` the same commands run in this process,
first untraced and then once with spans around every call into a cpcodes
layer, and the per-layer metrics are reported. The last line of standard
output is one JSON object; the lines before it name every figure with its
unit. The exit code is 1 when an operation or a check failed, 2 when the
program to measure is missing.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, set before numpy loads, so `--threads` is the only
# parallelism in a run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_REPEATS = 3
# Per-command medians over at least three passes ride out a slow spell of the machine.
MIN_PASSES = 3
MIN_UNTRACED_PASSES = 2
COMMAND_TIMEOUT_S = 150
IMPORT_PROBE = "import cpcodes.cli, sys; sys.stdout.write(cpcodes.cli.__file__)"

END_TO_END = {
    # median wall time of a fresh interpreter that imports cpcodes.cli; every command pays it
    "setup_s": "s",
    # one pass of the closed-loop client: the sum over its commands of each one's median wall time
    "session_s": "s",
    # largest peak RSS of any child process of the run
    "peak_rss_mb": "MB",
    # mean squared error per sample of what the workload delivers: the codec's reconstructions,
    # the designs' reported empirical_D, or eval's CPC distortions
    "distortion": "sigma2",
}

COMMAND_KEYS = ("encode", "decode", "ratepoints", "design_common", "design_general",
                "design_wsc", "eval", "eval_1t")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.encode.self_s": "s",
    "cli.decode.self_s": "s",
    "cli.design.self_s": "s",
    "cli.eval.self_s": "s",
    "codec.load_code.busy_s": "s",
    "codec.save_code.busy_s": "s",
    "codec.encode_cpc.calls": "count",
    "codec.encode_cpc.busy_s": "s",
    "codec.encode_cpc.p50_us": "us",
    "codec.encode_cpc.p99_us": "us",
    "codec.rank_codeword.busy_s": "s",
    "codec.decode.calls": "count",
    "codec.decode.busy_s": "s",
    "codec.decode.p50_us": "us",
    "codec.decode.p99_us": "us",
    "codec.write_stream.busy_s": "s",
    "codec.read_stream.busy_s": "s",
    "codec.stream_bytes": "bytes",
    "codec.stream_efficiency": "ratio",
    "codec.stream_bits_per_sample": "bit",
    "codec.sort_by_variant.busy_s": "s",
    "codec.sort_by_variant.rows": "count",
    "codec.subcode_distances.busy_s": "s",
    "codec.subcode_distances.rows": "count",
    "combinatorics.rate_point_census.busy_s": "s",
    "order_stats.table.calls": "count",
    "order_stats.table.busy_s": "s",
    "order_stats.grouped_projection.busy_s": "s",
    "design.design_common_composition.busy_s": "s",
    "design.design_common_composition.self_s": "s",
    "design.design_common_composition.iterations": "count",
    "design.design_common_composition.ms_per_iter": "ms",
    "design.lloyd_general.busy_s": "s",
    "design.lloyd_general.self_s": "s",
    "design.lloyd_general.iterations": "count",
    "design.lloyd_general.ms_per_iter": "ms",
    "design.distortion_decomposition.busy_s": "s",
    "design.empty_cell_events": "count",
    "design.converged_frac": "ratio",
    "wsc.gain_codebook.busy_s": "s",
    "wsc.allocate_compositions.busy_s": "s",
    "wsc.design_fixed_rate.self_s": "s",
    "evaluation.empirical_distortion.calls": "count",
    "evaluation.empirical_distortion.busy_s": "s",
    "evaluation.empirical_distortion.self_s": "s",
    "evaluation.empirical_distortion.samples_per_s": "1/s",
    "evaluation.baselines.busy_s": "s",
    "streams.substream.calls": "count",
}
for _key in COMMAND_KEYS:
    PER_LAYER[f"cmd.{_key}.wall_s"] = "s"
    PER_LAYER[f"cmd.{_key}.trace_overhead_s"] = "s"

# Layers each workload is predicted to bypass: these read 0 in its traced run.
BYPASS = {
    "codec_roundtrip": ("codec.subcode_distances.rows", "design.design_common_composition.busy_s",
                        "design.lloyd_general.busy_s", "evaluation.empirical_distortion.calls",
                        "order_stats.table.calls", "combinatorics.rate_point_census.busy_s"),
    "design_session": ("codec.encode_cpc.calls", "codec.decode.calls", "codec.rank_codeword.busy_s",
                       "codec.write_stream.busy_s", "codec.read_stream.busy_s"),
    "eval_rd": ("codec.encode_cpc.calls", "codec.decode.calls", "design.design_common_composition.busy_s",
                "design.lloyd_general.busy_s", "combinatorics.rate_point_census.busy_s"),
}


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "cpcodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CPC_THREADS", "PYTHONPATH")}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def run_child(args, env) -> tuple[float, int, str, str]:
    """Wall time, exit code, stdout and stderr of one fresh interpreter."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, "", "timed out"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_in_process(argv) -> tuple[float, int, str]:
    """Wall time, exit code and error text of one `cpc` command run in this process."""
    import click
    from cpcodes.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    rc, err = 0, ""
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main.main(args=list(argv), prog_name="cpc", standalone_mode=False)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        err = sink.getvalue()
    except click.ClickException as exc:
        rc, err = exc.exit_code, exc.format_message()
    except Exception:  # a traceback from the program is a failed operation, not a crash here
        rc, err = 1, traceback.format_exc()
    return time.perf_counter() - start, rc, err


def per_key(commands, walls) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for cmd, wall in zip(commands, walls):
        out[cmd.key] += wall
    return out


def run_cycles(run_pass, seconds: float, min_passes: int, reserve_passes: int = 0) -> list:
    """Run ``run_pass(pass_no)`` at least ``min_passes`` times, then until the next
    pass (plus ``reserve_passes`` more) would overrun ``seconds``."""
    start = time.perf_counter()
    passes, durations = [], []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(len(passes)))
        durations.append(time.perf_counter() - t)
        needed = (1 + reserve_passes) * statistics.median(durations)
        if len(passes) >= min_passes and time.perf_counter() - start + needed > seconds:
            return passes


def report(result: dict, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({**result, "metrics": metrics}))


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def run_untraced(wl, seed: int, seconds: float) -> int:
    import numpy as np

    env = child_env()
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, rc, out, err = run_child(["-c", IMPORT_PROBE], env)
        if rc != 0 or not Path(out).resolve().is_relative_to(SRC):
            print(f"error: cannot import cpcodes.cli from {SRC}: {err.strip() or out}", file=sys.stderr)
            return 2
        setup.append(wall)

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.prepare(work, seed)
    commands = wl.commands()

    def one_pass(pass_no):
        walls = []
        failed = set()
        for i, cmd in enumerate(wl.commands(pass_no)):
            wall, rc, _, err = run_child(["-m", "cpcodes.cli", *cmd.argv], env)
            walls.append(wall)
            if rc != 0:
                failed.add(i)
                print(f"fail: cpc {cmd.argv[0]} exited {rc}: {err.strip()[-500:]}")
        outcome = wl.check()
        for i, reasons in outcome.failures.items():
            failed.add(i)
            for reason in reasons:
                print(f"fail: cpc {commands[i].argv[0]} ({commands[i].key}): {reason}")
        return walls, outcome, len(failed)

    passes = run_cycles(one_pass, seconds, MIN_PASSES)
    attempted = len(passes) * len(commands)
    failed = sum(p[2] for p in passes)
    medians = [statistics.median(p[0][i] for p in passes) for i in range(len(commands))]
    for key, wall in per_key(commands, medians).items():
        print(f"{key}_s = {wall:.6g} s")
    for name, (value, unit) in passes[-1][1].figures.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"passes = {len(passes)}")
    print("env: " + json.dumps(environment()))

    metrics = {
        "setup_s": statistics.median(setup),
        "session_s": sum(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "distortion": finite(float(np.median([p[1].distortion for p in passes]))),
    }
    report({"correct": failed == 0, "attempted": attempted, "failed": failed},
           {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})
    return 0 if failed == 0 else 1


def layer_metrics(spans, import_s, figures, untraced_keys, traced_keys, absent_spans):
    """Per-layer metrics from the traced pass, and the names reported as absent."""
    from tracing import self_times, tail_percentile

    selfs = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def busy(name):
        return sum(s.duration for s in by[name])

    def self_s(name):
        return sum(selfs[s.id] for s in by[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    absent = set()
    m = {"cli.import_s": import_s}
    for c in ("encode", "decode", "design", "eval"):
        m[f"cli.{c}.self_s"] = self_s(f"cli.{c}")
    for name in ("load_code", "save_code", "encode_cpc", "rank_codeword", "decode", "write_stream",
                 "read_stream", "sort_by_variant", "subcode_distances"):
        m[f"codec.{name}.busy_s"] = busy(f"codec.{name}")
    for name in ("encode_cpc", "decode"):
        span = f"codec.{name}"
        m[f"{span}.calls"] = len(by[span])
        durations = [s.duration * 1e6 for s in by[span]]
        for pct in (50, 99):
            value = tail_percentile(durations, pct) if durations else 0.0
            if value is None:
                absent.add(f"{span}.p{pct}_us")
            m[f"{span}.p{pct}_us"] = value or 0.0
    for name in ("sort_by_variant", "subcode_distances"):
        m[f"codec.{name}.rows"] = attr(f"codec.{name}", "rows")
    for name in ("stream_bytes", "stream_efficiency", "stream_bits_per_sample"):
        m[f"codec.{name}"] = figures.get(name, (0.0, ""))[0]
    m["combinatorics.rate_point_census.busy_s"] = busy("combinatorics.rate_point_census")
    m["order_stats.table.calls"] = len(by["order_stats.table"])
    m["order_stats.table.busy_s"] = busy("order_stats.table")
    m["order_stats.grouped_projection.busy_s"] = busy("order_stats.grouped_projection")
    lloyds = ("design.design_common_composition", "design.lloyd_general")
    for span in lloyds:
        iterations = attr(span, "iterations")
        m[f"{span}.busy_s"] = busy(span)
        m[f"{span}.self_s"] = self_s(span)
        m[f"{span}.iterations"] = iterations
        m[f"{span}.ms_per_iter"] = 1000.0 * self_s(span) / iterations if iterations else 0.0
    m["design.distortion_decomposition.busy_s"] = busy("design.distortion_decomposition")
    m["design.empty_cell_events"] = sum(attr(s, "empty_cell_events") for s in lloyds)
    designs = sum(len(by[s]) for s in lloyds)
    m["design.converged_frac"] = sum(attr(s, "converged") for s in lloyds) / designs if designs else 0.0
    for name in ("gain_codebook", "allocate_compositions"):
        m[f"wsc.{name}.busy_s"] = busy(f"wsc.{name}")
    m["wsc.design_fixed_rate.self_s"] = self_s("wsc.design_fixed_rate")
    span = "evaluation.empirical_distortion"
    m[f"{span}.calls"] = len(by[span])
    m[f"{span}.busy_s"] = busy(span)
    m[f"{span}.self_s"] = self_s(span)
    m[f"{span}.samples_per_s"] = attr(span, "samples") / busy(span) if by[span] else 0.0
    m["evaluation.baselines.busy_s"] = busy("evaluation.baselines")
    m["streams.substream.calls"] = len(by["streams.substream"])
    for key in COMMAND_KEYS:
        if key in traced_keys:
            wall = statistics.median(k[key] for k in untraced_keys)
            m[f"cmd.{key}.wall_s"] = wall
            m[f"cmd.{key}.trace_overhead_s"] = traced_keys[key] - wall
        else:
            m[f"cmd.{key}.wall_s"] = m[f"cmd.{key}.trace_overhead_s"] = 0.0
    for name in m:
        if any(name.startswith(s + ".") for s in absent_spans):
            absent.add(name)
    return m, sorted(absent)


def run_traced(wl, seed: int, seconds: float) -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import cpcodes.cli
    except ImportError as exc:
        print(f"error: cannot import cpcodes.cli from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if not Path(cpcodes.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: cpcodes.cli was imported from {cpcodes.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np
    import tracing

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.prepare(work, seed)
    commands = wl.commands()
    failed_ops = 0

    def one_pass(_pass_no, tracer=None):
        # every pass repeats the inputs of pass 0, so traced and untraced walls time the same work
        nonlocal failed_ops
        tracing.clear_caches()
        walls, failed = [], set()
        for i, cmd in enumerate(commands):
            span = None
            if tracer is not None:
                tracer.run = i
                span = tracer.begin(f"cli.{cmd.argv[0]}")
            wall, rc, err = run_in_process(cmd.argv)
            if span is not None:
                tracer.end(span)
            walls.append(wall)
            if rc != 0:
                failed.add(i)
                print(f"fail: cpc {cmd.argv[0]} exited {rc}: {err.strip()[-500:]}")
        encoded = None
        if tracer is not None:
            encoded = {}
            for i, cmd in enumerate(commands):
                ws = [s.attrs.pop("w") for s in tracer.spans if s.run == i and "w" in s.attrs]
                if ws:
                    encoded[Path(cmd.argv[cmd.argv.index("--codebook") + 1]).stem] = np.asarray(ws)
        outcome = wl.check(encoded)
        for i, reasons in outcome.failures.items():
            failed.add(i)
            for reason in reasons:
                print(f"fail: cpc {commands[i].argv[0]} ({commands[i].key}): {reason}")
        failed_ops += len(failed)
        return per_key(commands, walls), outcome

    untraced = run_cycles(one_pass, seconds, MIN_UNTRACED_PASSES, reserve_passes=1)
    tracer = tracing.Tracer()
    restore, absent_targets = tracing.install(tracer)
    try:
        traced_keys, outcome = one_pass(0, tracer)
    finally:
        restore()
    passes = len(untraced) + 1
    attempted = passes * len(commands)

    absent_spans = ({s for _, _, s, _ in tracing.TARGETS}
                    - {s for m, f, s, _ in tracing.TARGETS if f"{m}.{f}" not in absent_targets})
    metrics, absent = layer_metrics(tracer.spans, import_s, outcome.figures,
                                    [k for k, _ in untraced], traced_keys, absent_spans)
    with open(work / "spans.jsonl", "w") as fp:
        for s in tracer.spans:
            fp.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                                 "thread": s.thread, "run": s.run, "id": s.id, **s.attrs}) + "\n")
    moved = [name for name in BYPASS.get(wl.name, ()) if metrics.get(name)]
    print(f"bypass predictions: {'held' if not moved else 'moved: ' + ', '.join(moved)}")
    if absent_targets or absent:
        print(f"absent (reported as 0): targets {absent_targets}, metrics {absent}")
    print(f"untraced passes = {len(untraced)}; spans = {len(tracer.spans)}")
    print("env: " + json.dumps(environment()))
    report({"correct": failed_ops == 0, "attempted": attempted, "failed": failed_ops},
           {k: {"value": float(metrics[k]), "unit": unit} for k, unit in PER_LAYER.items()})
    return 0 if failed_ops == 0 else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpcodes" / "cli.py").is_file():
        print(f"error: no cpcodes package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            rc = max(rc, subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                         str(args.seed), "--seconds", str(args.seconds), "--trace",
                                         str(args.trace)]).returncode)
        return rc
    wl = WORKLOADS[args.workload]()
    print(f"workload {wl.name}: {wl.why}")
    run = run_traced if args.trace else run_untraced
    return run(wl, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
