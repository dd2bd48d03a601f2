"""Batch command-line front end.

Every command writes its outputs plus a JSON run manifest sufficient to
replay the run byte-for-byte with ``cpc replay``: the replay ``argv``, the
working directory ``cwd`` that its relative paths resolve against, the
``parameters`` (click's parsed values keyed by parameter name), seed,
versions, output paths, wall time and the process's peak memory.

Every file a command writes is replaced whole, never truncated in place
(:func:`_replaced`), so a failed command leaves the previous file; a target
that is not a regular file (a symlink, FIFO or device) is written in place.

Exit codes: 0 success, 2 bad usage (an output path in a missing directory, or
one that names a directory, no file or another output, an input path that
names a directory, and a replay file that is not a ``cpc`` run manifest
included), 3 design infeasible, 4 bad input (dimension mismatch, non-finite
value, a vector file that cannot be decoded as text, or an unreadable
codebook), 5 corrupt stream, 6 resource guard exceeded (an enumeration bound
or a failed allocation).

Each command imports the modules it runs inside its own body: ``encode`` and
``decode`` load the codec, ``ratepoints`` the combinatorics alone.  ``cpc``
and ``python -m cpcodes.cli`` enter through :func:`run`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import os
import platform
import resource
import stat
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


def _versions() -> dict:
    return {
        "cpcodes": __version__,
        "numpy": np.__version__,
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


@contextlib.contextmanager
def _replaced(path, binary: bool = False):
    """An open file whose contents replace ``path`` when the block ends.

    The file is ``<path>.<pid>.<8 random hex digits>.part`` beside ``path``,
    created anew (``O_CREAT|O_EXCL``, so the umask sets its mode), so a
    leftover of an earlier process with the same pid cannot collide with it
    and nothing this call did not create is removed; the old regular file is
    unlinked and the new one renamed into place, and on any exception the
    ``.part`` file is removed.  A ``path`` that exists but is not a regular
    file is opened and written in place.

    Unlinking before the rename matters on ext4 mounted with ``discard``,
    where freeing on-disk blocks waits on a synchronous discard (45-75 ms a
    file).  ext4 writes out at once a file renamed over another, or truncated
    and rewritten, so each such rewrite frees the blocks the previous one
    wrote; a file renamed to a free name stays in delayed allocation, and
    unlinking it before writeback frees nothing on disk.
    """
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    target = path if in_place else f"{path}.{os.getpid()}.{os.urandom(4).hex()}.part"
    fp = open(target, ("w" if in_place else "x") + ("b" if binary else ""),
              newline=None if binary else "\n")
    try:
        with fp:
            yield fp
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            os.rename(target, path)
    except BaseException:
        if not in_place:
            os.unlink(target)
        raise


def _output_path(ctx: click.Context, param: click.Parameter, value):
    """Callback of every output option: bad usage, before any work, for a path
    that names no file (empty, or ending in a separator), whose directory does
    not exist, or that another output option names."""
    if value is None:
        return value
    if not os.path.basename(value):
        raise click.BadParameter(f"{value!r} names no file")
    path = os.path.abspath(value)
    if not os.path.isdir(os.path.dirname(path)):
        raise click.BadParameter(f"directory of {value} does not exist")
    taken = ctx.meta.setdefault("output_paths", {})
    if path in taken:
        raise click.BadParameter(f"{value} is also the {taken[path]} path")
    taken[path] = param.opts[0]
    return value


def _output_option(*decls, **kwargs):
    """A ``click.option`` for a path the command writes."""
    return click.option(*decls, type=click.Path(dir_okay=False), callback=_output_path, **kwargs)


_INPUT = click.Path(exists=True, dir_okay=False)  # a file a command reads


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
    with _replaced(params["manifest"]) as fp:
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

        return _output_option("--manifest", default=None,
                              help="Manifest path (default FIRST_OUTPUT.manifest.json).")(command)

    return decorate


def _load_code(path):
    from .codec import load_code

    try:
        return load_code(path)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # an int level past a double
        raise BadInputError(f"bad codebook {path}: {exc}")


def _parse_composition(text: str, n: int) -> Composition:
    try:
        c = Composition(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise click.UsageError(f"bad composition {text!r}: {exc}")
    if c.n != n:
        raise click.UsageError(f"composition {text} sums to {c.n}, not --n {n}")
    return c


def _check_sigma(sigma: float) -> None:
    """Bad usage outside [1e-50, 1e50]: the stderr squares distortions of about sigma**2."""
    if not 1e-50 <= sigma <= 1e50:
        raise click.UsageError(f"--sigma must be positive and finite, in [1e-50, 1e50], got {sigma}")


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
@click.option("--no-conjecture-filter", is_flag=True, help="Lay the chosen parts out descending, not in the "
              "variant's conjectured pattern; the same sizes are searched.")
@_output_option("--out", default="codebook.json", show_default=True)
@_recorded(((RuntimeError, ValueError), 3, "design infeasible: "))
def cmd_design(n, j_spheres, variant, mode, rate, compositions, samples, seed, sigma,
               g_lambda, no_conjecture_filter, out):
    """Design a codebook and write it with a run manifest."""
    from .codec import save_code
    from .design import DesignConfig, design_common_composition, lloyd_general, training_memory_bytes

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
    _check_sigma(sigma)
    if mode == "common" and len(compositions) != 1:
        raise click.UsageError("mode common needs exactly one --composition")
    if mode == "general" and not compositions:
        raise click.UsageError("mode general needs --composition (one per sphere, or one shared)")
    comps = [_parse_composition(c, n) for c in compositions]
    if mode == "general" and len(comps) == 1:
        comps = comps * j_spheres
    if mode == "general" and len(comps) != j_spheres:
        raise click.UsageError(f"{len(comps)} compositions for J={j_spheres}")
    cfg = DesignConfig(J=j_spheres, variant=variant, sample_count=samples, rng_seed=seed)
    design_block: dict = {"mode": mode, "config": {
        "J": j_spheres, "variant": variant, "samples": samples, "seed": seed, "sigma": sigma,
    }}
    if mode in ("common", "general"):
        from .order_stats import gaussian_order_stats

        table = gaussian_order_stats(n, sigma)
        if mode == "common":
            result = design_common_composition(comps[0], cfg, table)
        else:
            result = lloyd_general(comps, cfg, table)
        trained = comps
        design_block.update(iterations=result.iterations, empirical_D=result.distortion,
                            converged=result.converged)
    else:
        from . import wsc

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
    with _replaced(out) as fp:
        save_code(fp, result.code, extra={"design": design_block})
    click.echo(f"wrote {out}")
    return [out]


def _read_vectors(path, n) -> np.ndarray:
    rows = []
    line_nos = []
    with open(path) as fp:
        try:
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
        except UnicodeDecodeError as exc:
            raise BadInputError(f"{path} is not a text file of vectors: {exc}")
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
@click.option("--codebook", type=_INPUT, required=True)
@click.option("--input", "input_path", type=_INPUT, required=True,
              help="CSV, one vector per row.")
@_output_option("--output", required=True, help="Encoded stream path.")
@_recorded()
def cmd_encode(codebook, input_path, output):
    """Encode vectors to the (sphere, rank) stream format."""
    from .codec import encode_batch, write_stream

    code = _load_code(codebook)
    spheres, ranks, _ = encode_batch(_read_vectors(input_path, code.n), code)
    with _replaced(output, binary=True) as fp:
        count = write_stream(fp, code, spheres, ranks)
    click.echo(f"encoded {count} vectors")
    return [output]


@main.command("decode")
@click.option("--codebook", type=_INPUT, required=True)
@click.option("--input", "input_path", type=_INPUT, required=True)
@_output_option("--output", required=True, help="CSV of reconstructions.")
@_recorded()
def cmd_decode(codebook, input_path, output):
    """Reconstruct codewords from an encoded stream."""
    from .codec import decode_batch, read_stream

    code = _load_code(codebook)
    with open(input_path, "rb") as fp:
        spheres, ranks = read_stream(fp, code)
    W = decode_batch(spheres, ranks, code)
    with _replaced(output) as fp:
        fp.writelines(line + "\n" for line in _csv_lines(W))
    click.echo(f"decoded {len(W)} vectors")
    return [output]


@main.command("eval")
@click.option("--codebook", "codebooks", type=_INPUT, multiple=True)
@click.option("--samples", type=click.IntRange(min=1), default=500_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--baselines", default="", help="Comma list from: ecsq, ecusq, bound.")
@click.option("--fixed-rate", is_flag=True, help="Report the no-entropy-coding rate.")
@click.option("--threads", type=click.IntRange(min=1), envvar="CPC_THREADS", help="Worker threads (default CPC_THREADS or 1).")
@_output_option("--output", default="rd.csv", show_default=True)
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
    _check_sigma(sigma)
    if codebooks and samples < evaluation.MIN_SAMPLES:
        raise click.UsageError(f"--samples must be at least {evaluation.MIN_SAMPLES} for a codebook")
    codes = [_load_code(path) for path in codebooks]
    measured = evaluation.empirical_distortions(codes, samples, seed, sigma=sigma, threads=threads or 1)
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
    with _replaced(output) as fp:
        fp.write(evaluation.rd_points_to_csv(points))
    click.echo(f"wrote {output} ({len(points)} points)")
    return [output]


@main.command("ratepoints")
@click.option("--n-range", default="2:9", show_default=True, help="LO:HI inclusive.")
@click.option("--j-range", default="1:4", show_default=True, help="LO:HI inclusive.")
@click.option("--limit", type=click.IntRange(min=1), default=50_000_000, show_default=True)
@_output_option("--output", default="ratepoints.csv", show_default=True)
@_recorded()
def cmd_ratepoints(n_range, j_range, limit, output):
    """Count distinct fixed-rate points per (n, J)."""
    ns = _parse_range("--n-range", n_range, 2)
    js = _parse_range("--j-range", j_range, 1)
    rows = ["n,J,count"]
    for n in ns:
        for j in js:
            rows.append(f"{n},{j},{rate_point_census(n, j, limit=limit).count}")
    with _replaced(output) as fp:
        fp.write("\n".join(rows) + "\n")
    click.echo(f"wrote {output}")
    return [output]


@main.command("replay")
@click.argument("manifest_path", type=_INPUT)
def cmd_replay(manifest_path):
    """Re-run the command recorded in a manifest, from the directory it ran in."""
    try:
        with open(manifest_path) as fp:
            doc = json.load(fp)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        doc = {}
    if not isinstance(doc, dict):
        doc = {}
    here = os.getcwd()
    argv, cwd = doc.get("argv"), doc.get("cwd", here)
    # no manifest records a replay, so one that names replay would recurse without end
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)
            and argv[0] != "replay" and isinstance(cwd, str)):
        raise click.UsageError(f"{manifest_path} is not a cpc run manifest")
    if not os.path.isdir(cwd):
        raise click.UsageError(f"recorded working directory {cwd} does not exist")
    os.chdir(cwd)  # relative paths in argv resolve as they did in the recorded run
    try:
        main.main(args=argv, standalone_mode=True)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    run()
