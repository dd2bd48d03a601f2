"""Batch command-line front end.

Every command writes its outputs plus a JSON run manifest sufficient to
replay the run byte-for-byte with ``cpc replay``: the replay ``argv``, the
working directory ``cwd`` that its relative paths resolve against, the
``parameters`` (click's parsed values keyed by parameter name), seed,
versions, output paths, wall time and the process's peak memory.

Exit codes: 0 success, 2 bad usage, 3 design infeasible, 4 bad input
(dimension mismatch, non-finite value or unreadable codebook), 5 corrupt
stream, 6 resource guard exceeded (an enumeration bound or a failed
allocation).

Each command imports the modules it runs inside its own body: ``encode`` and
``decode`` load the codec, ``ratepoints`` the combinatorics alone.  ``cpc``
and ``python -m cpcodes.cli`` enter through :func:`run`.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import platform
import resource
import sys
import time

import click
import numpy as np

from . import __version__
from .combinatorics import Composition, ResourceLimitError, rate_point_census
from .streams import GENERATOR_ID, MIN_TRAINING_SAMPLES


class BadInputError(Exception):
    """A vector file or codebook that the program cannot use."""


def _exits():
    """The ``(exception types, exit code, stderr prefix)`` rows every command
    shares.  The first match wins, so ResourceLimitError, a RuntimeError, comes
    before any wider net; a failed allocation is a resource guard too.  Built
    only when a command fails, so that a command that never touches a stream
    does not load the codec for its StreamError.
    """
    from .codec import StreamError

    return (
        (ResourceLimitError, 6, "resource guard: "),
        (MemoryError, 6, "resource guard: "),
        (StreamError, 5, "corrupt stream: "),
        (BadInputError, 4, ""),
    )


def _scipy_version() -> str | None:
    """``scipy.__version__``, read from the ``version.py`` that scipy's
    package imports it from, without running the package ``__init__``: no
    command imports scipy, and that import alone costs about 20 ms.  None when
    scipy is not installed."""
    import importlib.util

    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    path = os.path.join(spec.submodule_search_locations[0], "version.py")
    namespace: dict = {}
    with open(path) as fp:
        exec(compile(fp.read(), path, "exec"), namespace)
    return namespace["version"]


def _versions() -> dict:
    return {
        "cpcodes": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "python": platform.python_version(),
    }


def _replay_argv(command: click.Command, params: dict) -> list[str]:
    """The argv that reruns ``command`` with ``params``: flags when true,
    multiple options repeated, None skipped."""
    argv = [command.name]
    for param in command.params:
        value = params[param.name]
        if param.is_flag:
            argv += [param.opts[0]] if value else []
        elif value is not None:
            for v in value if param.multiple else [value]:
                argv += [param.opts[0], str(v)]
    return argv


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (``ru_maxrss`` is in
    kB on Linux and in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _write_manifest(command: click.Command, params: dict, outputs, wall_time_s: float,
                    memory_estimate_mb: float | None):
    doc = {
        "command": command.name,
        "argv": _replay_argv(command, params),
        "cwd": os.getcwd(),
        "parameters": params,
        "seed": params.get("seed"),
        "generator": GENERATOR_ID,
        "versions": _versions(),
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time_s,
        "peak_rss_mb": _peak_rss_mb(),
        "memory_estimate_mb": memory_estimate_mb,
    }
    with open(params["manifest"], "w", newline="\n") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _recorded(*exits):
    """Wrap a command body that returns its output paths.

    Adds the ``--manifest`` option, times the run, maps the body's expected
    exceptions to exit codes through :func:`_exits` and then ``exits``, and writes
    the manifest, by default to ``<first output>.manifest.json``.  A body that
    estimates its memory leaves the estimate in the click context's
    ``meta["memory_estimate_mb"]``.
    """
    def decorate(body):
        @functools.wraps(body)
        def command(manifest, **kwargs):
            started = time.monotonic()
            try:
                outputs = body(**kwargs)
            except Exception as exc:
                for types, code, prefix in _exits() + exits:
                    if isinstance(exc, types):
                        click.echo(f"{prefix}{exc}", err=True)
                        sys.exit(code)
                raise
            ctx = click.get_current_context()
            params = {**ctx.params, "manifest": manifest or f"{outputs[0]}.manifest.json"}
            _write_manifest(ctx.command, params, outputs, time.monotonic() - started,
                            ctx.meta.get("memory_estimate_mb"))

        return click.option("--manifest", type=click.Path(), default=None,
                            help="Manifest path (default FIRST_OUTPUT.manifest.json).")(command)

    return decorate


def _load_code(path):
    from .codec import load_code

    try:
        return load_code(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInputError(f"bad codebook {path}: {exc}")


def _parse_composition(text: str) -> Composition:
    try:
        return Composition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise click.UsageError(f"bad composition {text!r}: {exc}")


def _parse_range(option: str, text: str, least: int) -> range:
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise click.UsageError(f"bad {option} {text!r}; expected LO:HI")
    if not least <= lo <= hi:
        raise click.UsageError(f"bad {option} {text!r}; need {least} <= LO <= HI")
    return range(lo, hi + 1)


@click.group()
def main():
    """Design, code with, and evaluate permutation codebooks on concentric spheres."""


def run():
    """The ``cpc`` process: :func:`main` between two ``gc.freeze()`` calls.

    The first freeze moves the import heap out of the collector's reach for the
    command's own collections, the second moves whatever the command loaded;
    the full collection at interpreter exit then skips both.  Tests and
    ``cpc replay`` call :func:`main`, so nothing is frozen in their process.
    """
    gc.freeze()
    try:
        main()
    finally:
        gc.freeze()


@main.command("design")
@click.option("--n", type=click.IntRange(min=1), required=True, help="Vector dimension.")
@click.option("--j", "-J", "j_spheres", type=click.IntRange(min=1), default=1, show_default=True, help="Sphere count.")
@click.option("--variant", type=click.Choice(["1", "2"]), default="1", show_default=True)
@click.option(
    "--mode",
    type=click.Choice(["common", "general", "wsc-var", "wsc-fixed"]),
    default="common",
    show_default=True,
)
@click.option("--rate", type=float, default=None, help="Target bits/sample (wsc modes).")
@click.option("--composition", "compositions", multiple=True, help="Parts like 3,2,2 (repeatable).")
@click.option("--samples", type=click.IntRange(min=MIN_TRAINING_SAMPLES), default=500_000,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--g-lambda", default="scalar", show_default=True, help="Lattice second moment (wsc-var): scalar, lambda24, or a float.")
@click.option("--no-conjecture-filter", is_flag=True, help="Search all compositions, not just the monotone-pattern subset.")
@click.option("--out", type=click.Path(), default="codebook.json", show_default=True)
@_recorded(((RuntimeError, ValueError), 3, "design infeasible: "))
def cmd_design(n, j_spheres, variant, mode, rate, compositions, samples, seed, sigma,
               g_lambda, no_conjecture_filter, out):
    """Design a codebook and write it with a run manifest."""
    from .codec import save_code
    from .design import DesignConfig, design_common_composition, lloyd_general, training_memory_bytes
    from .order_stats import gaussian_order_stats

    variant = int(variant)
    wsc_mode = mode in ("wsc-var", "wsc-fixed")
    unread = {  # a non-default value of an option this mode never reads
        "--rate": rate is not None and not wsc_mode,
        "--composition": bool(compositions) and wsc_mode,
        "--g-lambda": g_lambda != "scalar" and mode != "wsc-var",
        "--no-conjecture-filter": no_conjecture_filter and not wsc_mode,
    }
    if any(unread.values()):
        given = ", ".join(opt for opt, set_ in unread.items() if set_)
        raise click.UsageError(f"mode {mode} does not read {given}")
    if wsc_mode and rate is None:
        raise click.UsageError(f"--rate is required for mode {mode}")
    if rate is not None and not (math.isfinite(rate) and rate > 0):
        raise click.UsageError(f"--rate must be positive and finite, got {rate}")
    if mode == "common" and len(compositions) != 1:
        raise click.UsageError("mode common needs exactly one --composition")
    if mode == "general" and not compositions:
        raise click.UsageError("mode general needs --composition (one per sphere, or one shared)")
    cfg = DesignConfig(J=j_spheres, variant=variant, sample_count=samples, rng_seed=seed)
    design_block: dict = {"mode": mode, "config": {
        "J": j_spheres, "variant": variant, "samples": samples, "seed": seed, "sigma": sigma,
    }}
    if mode in ("common", "general"):
        table = gaussian_order_stats(n, sigma)
        comps = [_parse_composition(c) for c in compositions]
        if mode == "common":
            result = design_common_composition(comps[0], cfg, table)
        else:
            if len(comps) == 1:
                comps = comps * j_spheres
            if len(comps) != j_spheres:
                raise click.UsageError(f"{len(comps)} compositions for J={j_spheres}")
            result = lloyd_general(comps, cfg, table)
        trained = comps
        design_block.update(iterations=result.iterations, empirical_D=result.distortion,
                            converged=result.converged)
    else:
        from . import evaluation, wsc

        try:
            evaluation.threads_from_env()  # the designer's evaluation pass reads it
        except ValueError as exc:
            raise click.UsageError(f"bad CPC_THREADS: {exc}")
        designer = wsc.design_variable_rate if mode == "wsc-var" else wsc.design_fixed_rate
        kwargs = {"sigma": sigma, "filt": "none" if no_conjecture_filter else None}
        if mode == "wsc-var":
            try:
                value = wsc.LATTICE_SECOND_MOMENTS.get(g_lambda) or float(g_lambda)
            except ValueError:
                raise click.UsageError(f"unknown --g-lambda {g_lambda!r}")
            if not (math.isfinite(value) and value > 0):
                raise click.UsageError(f"--g-lambda must be positive and finite, got {g_lambda}")
            kwargs["g_lambda"] = value
        result = designer(n, rate, cfg, **kwargs)
        trained = [Composition(tuple(p)) for p in result.report["chosen_compositions"]]
        design_block.update(iterations=result.iterations, empirical_D=result.distortion,
                            report=result.report)
    click.get_current_context().meta["memory_estimate_mb"] = training_memory_bytes(trained, cfg) / 2**20
    save_code(out, result.code, extra={"design": design_block})
    click.echo(f"wrote {out}")
    return [out]


def _read_vectors(path, n) -> np.ndarray:
    rows = []
    line_nos = []
    with open(path) as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            if len(values) != n:
                raise BadInputError(f"row {line_no}: expected {n} values, got {len(values)}")
            try:
                rows.append(list(map(float, values)))
            except ValueError as exc:
                raise BadInputError(f"row {line_no}: {exc}")
            line_nos.append(line_no)
    X = np.array(rows, dtype=float).reshape(len(rows), n)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise BadInputError(f"row {line_nos[int(np.argmin(finite))]}: non-finite value")
    return X


def _csv_lines(W: np.ndarray) -> list[str]:
    """One line per row of ``W``, each value written as ``repr(float)``.

    Decoded rows hold only the codebook's few (signed) levels, so each
    distinct bit pattern is formatted once.
    """
    patterns, where = np.unique(W.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in patterns.view(np.float64).tolist()], dtype=object)
    return [",".join(row) for row in text[where.reshape(W.shape)].tolist()]


@main.command("encode")
@click.option("--codebook", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True,
              help="CSV, one vector per row.")
@click.option("--output", type=click.Path(), required=True, help="Encoded stream path.")
@_recorded()
def cmd_encode(codebook, input_path, output):
    """Encode vectors to the (sphere, rank) stream format."""
    from .codec import encode_batch, write_stream

    code = _load_code(codebook)
    spheres, ranks, _ = encode_batch(_read_vectors(input_path, code.n), code)
    with open(output, "wb") as fp:
        count = write_stream(fp, code, spheres, ranks)
    click.echo(f"encoded {count} vectors")
    return [output]


@main.command("decode")
@click.option("--codebook", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True, help="CSV of reconstructions.")
@_recorded()
def cmd_decode(codebook, input_path, output):
    """Reconstruct codewords from an encoded stream."""
    from .codec import decode_batch, read_stream

    code = _load_code(codebook)
    with open(input_path, "rb") as fp:
        spheres, ranks = read_stream(fp, code)
    W = decode_batch(spheres, ranks, code)
    with open(output, "w", newline="\n") as fp:
        fp.writelines(line + "\n" for line in _csv_lines(W))
    click.echo(f"decoded {len(W)} vectors")
    return [output]


@main.command("eval")
@click.option("--codebook", "codebooks", type=click.Path(exists=True), multiple=True)
@click.option("--samples", type=int, default=500_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--baselines", default="", help="Comma list from: ecsq, ecusq, bound.")
@click.option("--fixed-rate", is_flag=True, help="Report the no-entropy-coding rate.")
@click.option("--threads", type=click.IntRange(min=1), envvar="CPC_THREADS", help="Worker threads (default CPC_THREADS or 1).")
@click.option("--output", type=click.Path(), default="rd.csv", show_default=True)
@_recorded()
def cmd_eval(codebooks, samples, seed, sigma, baselines, fixed_rate, threads, output):
    """Measure rate-distortion points and write them as CSV."""
    from . import evaluation

    wanted = [b.strip() for b in baselines.split(",") if b.strip()]
    unknown = set(wanted) - {"ecsq", "ecusq", "bound"}
    if unknown:
        raise click.UsageError(f"unknown baselines: {sorted(unknown)}")
    if not codebooks and not wanted:
        raise click.UsageError("nothing to evaluate: give --codebook and/or --baselines")
    if not (math.isfinite(sigma) and sigma > 0):
        raise click.UsageError(f"--sigma must be positive and finite, got {sigma}")
    if codebooks and samples < evaluation.MIN_SAMPLES:
        raise click.UsageError(f"--samples must be at least {evaluation.MIN_SAMPLES} for a codebook")
    codes = [_load_code(path) for path in codebooks]
    measured = evaluation.empirical_distortions(codes, samples, seed, sigma=sigma, threads=threads)
    points = []
    for path, code, m in zip(codebooks, codes, measured):
        if m.low_count_spheres:
            click.echo(
                f"warning: {path}: sphere(s) {list(m.low_count_spheres)} "
                "hit fewer than 10 times; entropy estimate is unreliable",
                err=True,
            )
        if fixed_rate:
            rate = evaluation.rate_fixed(code)
        else:
            rate = evaluation.rate_variable(code, m.probs)
        points.append(
            evaluation.RDPoint(
                method="cpc" if code.J > 1 else "pc",
                n=code.n,
                J=code.J,
                rate=rate,
                distortion=m.distortion,
                stderr=m.stderr,
                seed=seed,
                samples=samples,
            )
        )
    if "ecusq" in wanted:
        points.extend(evaluation.ecusq_curve(evaluation.DEFAULT_BASELINE_STEPS, sigma))
    if "ecsq" in wanted:
        points.extend(evaluation.ecsq_curve(evaluation.DEFAULT_BASELINE_STEPS, sigma))
    if "bound" in wanted:
        points.extend(evaluation.shannon_bound(evaluation.DEFAULT_BOUND_RATES, sigma))
    with open(output, "w", newline="\n") as fp:
        fp.write(evaluation.rd_points_to_csv(points))
    click.echo(f"wrote {output} ({len(points)} points)")
    return [output]


@main.command("ratepoints")
@click.option("--n-range", default="2:9", show_default=True, help="LO:HI inclusive.")
@click.option("--j-range", default="1:4", show_default=True, help="LO:HI inclusive.")
@click.option("--limit", type=int, default=50_000_000, show_default=True)
@click.option("--output", type=click.Path(), default="ratepoints.csv", show_default=True)
@_recorded()
def cmd_ratepoints(n_range, j_range, limit, output):
    """Count distinct fixed-rate points per (n, J)."""
    ns = _parse_range("--n-range", n_range, 2)
    js = _parse_range("--j-range", j_range, 1)
    rows = ["n,J,count"]
    for n in ns:
        for j in js:
            rows.append(f"{n},{j},{rate_point_census(n, j, limit=limit).count}")
    with open(output, "w", newline="\n") as fp:
        fp.write("\n".join(rows) + "\n")
    click.echo(f"wrote {output}")
    return [output]


@main.command("replay")
@click.argument("manifest_path", type=click.Path(exists=True))
def cmd_replay(manifest_path):
    """Re-run the command recorded in a manifest, from the directory it ran in."""
    with open(manifest_path) as fp:
        doc = json.load(fp)
    argv = doc.get("argv")
    if not argv:
        raise click.UsageError("manifest does not carry a replayable argv")
    here = os.getcwd()
    cwd = doc.get("cwd", here)
    if not os.path.isdir(cwd):
        raise click.UsageError(f"recorded working directory {cwd} does not exist")
    os.chdir(cwd)  # relative paths in argv resolve as they did in the recorded run
    try:
        main.main(args=argv, standalone_mode=True)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    run()
