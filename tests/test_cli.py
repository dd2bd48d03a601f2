import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cpcodes
from cpcodes import design
from cpcodes.cli import main
from cpcodes.codec import encode_cpc, load_code
from cpcodes.combinatorics import Composition, rate_point_census
from cpcodes.design import DesignConfig, training_memory_bytes


@pytest.fixture
def runner():
    return CliRunner()


def design_args(out, **over):
    args = {
        "--n": "6", "--j": "2", "--variant": "1", "--mode": "common",
        "--composition": "2,2,2", "--samples": "20000", "--seed": "7", "--out": out,
    }
    args.update(over)
    flat = ["design"]
    for k, v in args.items():
        if v is None:
            continue
        flat += [k, v]
    return flat


def write_vectors(path, rows):
    with open(path, "w", newline="\n") as fp:
        for row in rows:
            fp.write(",".join(repr(float(v)) for v in row) + "\n")


class TestDesign:
    def test_writes_codebook_and_manifest(self, runner, tmp_path):
        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out))
        assert res.exit_code == 0, res.output
        code = load_code(out)
        assert code.J == 2 and code.n == 6
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["command"] == "design"
        assert manifest["outputs"] == [out]
        assert manifest["parameters"]["seed"] == 7
        assert 0 < manifest["peak_rss_mb"] < 10_000
        cfg = DesignConfig(J=2, sample_count=20_000)
        assert manifest["memory_estimate_mb"] == training_memory_bytes([Composition((2, 2, 2))], cfg) / 2**20
        assert manifest["versions"]["scipy"] == pytest.importorskip("scipy").__version__

    def test_wsc_fixed_profile(self, runner, tmp_path):
        out = str(tmp_path / "cb.json")
        res = runner.invoke(
            main,
            ["design", "--n", "7", "--j", "3", "--variant", "1", "--mode", "wsc-fixed",
             "--rate", "1.5", "--samples", "20000", "--seed", "1", "--out", out],
        )
        assert res.exit_code == 0, res.output
        code = load_code(out)
        assert code.J == 3
        doc = json.load(open(out))
        assert doc["design"]["mode"] == "wsc-fixed"
        assert "report" in doc["design"]

    def test_single_code_matches_level_formula(self, runner, tmp_path):
        from cpcodes.combinatorics import Composition
        from cpcodes.design import optimal_levels_single
        from cpcodes.order_stats import gaussian_order_stats

        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(
            out, **{"--n": "7", "--j": "1", "--composition": "3,2,2", "--samples": "400000"}
        ))
        assert res.exit_code == 0, res.output
        code = load_code(out)
        exact = optimal_levels_single(Composition((3, 2, 2)), gaussian_order_stats(7), 1)
        for got, want in zip(code.subcodes[0].levels, exact.levels):
            assert abs(got - want) < 3.0 / np.sqrt(400000 * 2)

    def test_missing_rate_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["design", "--n", "7", "--mode", "wsc-var", "--out", str(tmp_path / "x.json")]
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("mode,extra,unread", [
        ("common", ["--rate", "3"], "--rate"),
        ("general", ["--rate", "3"], "--rate"),
        ("wsc-var", ["--composition", "2,2,2"], "--composition"),
        ("wsc-fixed", ["--composition", "2,2,2"], "--composition"),
        ("common", ["--g-lambda", "lambda24"], "--g-lambda"),
        ("wsc-fixed", ["--g-lambda", "lambda24"], "--g-lambda"),
        ("common", ["--no-conjecture-filter"], "--no-conjecture-filter"),
        ("general", ["--no-conjecture-filter"], "--no-conjecture-filter"),
        ("common", ["--g-lambda", "bogus", "--rate", "3", "--no-conjecture-filter"],
         "--rate, --g-lambda, --no-conjecture-filter"),
    ])
    def test_option_of_another_mode_is_usage_error(self, runner, tmp_path, mode, extra, unread):
        out = tmp_path / "x.json"
        wsc = {"--composition": None, "--rate": "1.5"} if mode.startswith("wsc") else {}
        args = design_args(str(out), **{"--mode": mode, **wsc}) + extra
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert f"mode {mode} does not read {unread}" in res.output
        assert not out.exists()

    def test_default_g_lambda_is_not_an_unread_option(self, runner, tmp_path):
        """A replay argv carries ``--g-lambda scalar`` in every mode."""
        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out) + ["--g-lambda", "scalar"])
        assert res.exit_code == 0, res.output
        argv = json.loads(open(out + ".manifest.json").read())["argv"]
        assert argv[argv.index("--g-lambda") + 1] == "scalar"

    def test_memory_error_exits_6(self, runner, tmp_path, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.43 GiB")

        monkeypatch.setattr("cpcodes.design._training_blocks", no_memory)
        out = tmp_path / "x.json"
        res = runner.invoke(main, design_args(str(out)))
        assert res.exit_code == 6, res.output
        assert "resource guard: Unable to allocate 1.43 GiB" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    @pytest.mark.parametrize("mode, over", [
        ("common", {}),
        ("general", {"--composition": "1,2,3"}),
        ("wsc-fixed", {"--composition": None, "--rate": "1.5"}),
    ])
    def test_memory_guard_refuses_before_any_draw(self, runner, tmp_path, monkeypatch, mode, over):
        """A design whose estimate exceeds the memory available exits 6 with
        the estimate, and draws nothing."""
        def no_draw(*args):
            raise AssertionError("a training row was drawn")

        monkeypatch.setattr("cpcodes.design._available_bytes", lambda: 2**20)
        monkeypatch.setattr("cpcodes.design._training_blocks", no_draw)
        out = tmp_path / "x.json"
        res = runner.invoke(main, design_args(str(out), **{"--mode": mode, **over}))
        assert res.exit_code == 6, res.output
        assert re.search(r"resource guard: the design needs an estimated [0-9.]+ MB, "
                         r"more than the 1\.0 MB available", res.output), res.output
        if mode != "wsc-fixed":
            comps = [Composition((1, 2, 3) if mode == "general" else (2, 2, 2))]
            need = training_memory_bytes(comps, DesignConfig(J=2, sample_count=20_000))
            assert f"an estimated {need / 2**20:.1f} MB" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_memory_guard_skipped_when_nothing_is_known(self, monkeypatch):
        cfg = DesignConfig(J=2, sample_count=10**12)
        monkeypatch.setattr("cpcodes.design._available_bytes", lambda: None)
        design._guard_memory([Composition((8, 8))], cfg)
        monkeypatch.setattr("cpcodes.design._available_bytes", lambda: 10**12)
        with pytest.raises(MemoryError, match="an estimated"):
            design._guard_memory([Composition((8, 8))], cfg)

    def test_address_space_limit_caps_the_budget(self):
        """``ulimit -v`` caps what the guard takes as available."""
        script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32)); "
                  "from cpcodes import design; print(design._available_bytes())")
        env = {**os.environ, "PYTHONPATH": str(Path(cpcodes.__file__).parents[1])}
        got = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert 0 < int(got) <= 2**32

    def test_infeasible_rate_exits_3(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["design", "--n", "2", "--j", "2", "--mode", "wsc-var", "--rate", "0.05",
             "--samples", "20000", "--out", str(tmp_path / "x.json")],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("rate", ["inf", "nan", "-1", "0"])
    def test_rate_not_finite_and_positive_is_usage_error(self, runner, tmp_path, rate):
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["design", "--n", "6", "--j", "2", "--mode", "wsc-var",
                                   "--rate", rate, "--samples", "10000", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "--rate must be positive and finite" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_g_lambda_not_finite_and_positive_is_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["design", "--n", "6", "--j", "2", "--mode", "wsc-var",
                                   "--rate", "1.5", "--g-lambda", value, "--samples", "10000",
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "--g-lambda must be positive and finite" in res.output
        assert not out.exists()

    def test_too_low_rate_exits_3(self, runner, tmp_path):
        res = runner.invoke(main, ["design", "--n", "6", "--j", "2", "--mode", "wsc-var",
                                   "--rate", "0.01", "--samples", "10000",
                                   "--out", str(tmp_path / "x.json")])
        assert res.exit_code == 3, res.output
        assert "design infeasible: rate 0.01 bits/sample is too low" in res.output

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0"])
    @pytest.mark.parametrize("mode", ["common", "general", "wsc-var", "wsc-fixed"])
    def test_non_finite_sigma_exits_3(self, runner, tmp_path, monkeypatch, mode, sigma):
        """A NaN, infinite or zero sigma is refused before any sample is drawn,
        so no numpy RuntimeWarning is raised on the way."""
        def no_draw(*args):
            raise AssertionError("training samples drawn for a bad sigma")

        monkeypatch.setattr("cpcodes.design.substream", no_draw)
        extra = {"--composition": None, "--rate": "1.5"} if mode.startswith("wsc") else {}
        args = design_args(str(tmp_path / "x.json"), **{"--mode": mode, "--sigma": sigma, **extra})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, args)
        assert res.exit_code == 3
        assert "sigma must be positive and finite" in res.output
        assert "RuntimeWarning" not in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("option, value", [("--samples", "100"), ("--j", "0"), ("--n", "0")])
    def test_out_of_range_option_is_usage_error(self, runner, tmp_path, option, value):
        res = runner.invoke(main, design_args(str(tmp_path / "x.json"), **{option: value}))
        assert res.exit_code == 2, res.output
        assert "design infeasible" not in res.output

    def test_common_needs_one_composition(self, runner, tmp_path):
        res = runner.invoke(
            main, ["design", "--n", "6", "--mode", "common", "--out", str(tmp_path / "x.json")]
        )
        assert res.exit_code == 2


class TestCodingRoundtrip:
    @pytest.fixture
    def codebook(self, runner, tmp_path):
        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out, **{"--variant": "2"}))
        assert res.exit_code == 0, res.output
        return out

    def test_roundtrip_bit_exact(self, runner, tmp_path, codebook):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((200, 6))
        vecs = str(tmp_path / "x.csv")
        write_vectors(vecs, rows)
        stream = str(tmp_path / "x.cpc")
        recon = str(tmp_path / "rec.csv")
        assert runner.invoke(main, ["encode", "--codebook", codebook, "--input", vecs,
                                    "--output", stream]).exit_code == 0
        assert runner.invoke(main, ["decode", "--codebook", codebook, "--input", stream,
                                    "--output", recon]).exit_code == 0
        code = load_code(codebook)
        with open(recon) as fp:
            lines = fp.read().splitlines()
        assert len(lines) == 200
        for row, line in zip(rows, lines):
            got = np.array([float(v) for v in line.split(",")])
            want = encode_cpc(row, code)[1]
            assert np.array_equal(got, want)

    def test_empty_input(self, runner, tmp_path, codebook):
        vecs = str(tmp_path / "empty.csv")
        open(vecs, "w").close()
        stream = str(tmp_path / "e.cpc")
        recon = str(tmp_path / "e.csv")
        assert runner.invoke(main, ["encode", "--codebook", codebook, "--input", vecs,
                                    "--output", stream]).exit_code == 0
        assert runner.invoke(main, ["decode", "--codebook", codebook, "--input", stream,
                                    "--output", recon]).exit_code == 0
        assert open(recon).read() == ""

    def test_dimension_mismatch_exit4(self, runner, tmp_path, codebook):
        vecs = str(tmp_path / "bad.csv")
        write_vectors(vecs, [[1.0] * 6, [1.0] * 5])
        res = runner.invoke(main, ["encode", "--codebook", codebook, "--input", vecs,
                                   "--output", str(tmp_path / "o.cpc")])
        assert res.exit_code == 4
        assert "row 2" in res.output

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_exit4(self, runner, tmp_path, codebook, bad):
        vecs = tmp_path / "bad.csv"
        vecs.write_text(f"1,2,3,4,5,6\n\n1,2,{bad},4,5,6\n")
        res = runner.invoke(main, ["encode", "--codebook", codebook, "--input", str(vecs),
                                   "--output", str(tmp_path / "o.cpc")])
        assert res.exit_code == 4
        assert "row 3: non-finite value" in res.output

    @pytest.mark.parametrize("command", ["encode", "decode", "eval"])
    def test_bad_codebook_exit4(self, runner, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"variant": 1, "n": 2, "subcodes": [{"parts": [1, 1], "levels": [0.1, 0.5]}]}
        ))
        data = tmp_path / "in"
        data.write_text("")
        paths = ["--input", str(data), "--output", str(tmp_path / "out")]
        argv = {"encode": paths, "decode": paths, "eval": ["--output", str(tmp_path / "out")]}[command]
        res = runner.invoke(main, [command, "--codebook", str(bad), *argv])
        assert res.exit_code == 4
        assert res.output == (
            f"bad codebook {bad}: levels must be strictly decreasing, got (0.1, 0.5)\n"
        )

    @pytest.mark.parametrize("bad_at", [0, 1])
    def test_bad_codebook_in_list_exits_before_sampling(self, runner, tmp_path, codebook,
                                                        monkeypatch, bad_at):
        from cpcodes import evaluation

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variant": 1, "n": 2, "subcodes": [{"parts": [3]}]}))
        books = [codebook, codebook]
        books.insert(bad_at, str(bad))
        drawn = []
        monkeypatch.setattr(evaluation, "substream", lambda *args: drawn.append(args))
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", *(a for b in books for a in ("--codebook", b)),
                                   "--samples", "20000", "--output", str(out)])
        assert res.exit_code == 4
        assert res.output.startswith(f"bad codebook {bad}: ")
        assert drawn == [] and not out.exists()

    def test_corrupt_stream_exit5(self, runner, tmp_path, codebook):
        bad = str(tmp_path / "bad.cpc")
        with open(bad, "wb") as fp:
            fp.write(b"garbage stream")
        res = runner.invoke(main, ["decode", "--codebook", codebook, "--input", bad,
                                   "--output", str(tmp_path / "r.csv")])
        assert res.exit_code == 5


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("book", ["golden_v1", "golden_v2"])
def test_golden_streams(runner, tmp_path, book):
    """Streams and reconstructions of a pinned corpus with exact and one-ulp
    ties and signed zeros stay byte for byte what the per-vector encoder wrote."""
    codebook = str(DATA / f"{book}.json")
    stream, recon = tmp_path / "x.cpc", tmp_path / "x.csv"
    res = runner.invoke(main, ["encode", "--codebook", codebook,
                               "--input", str(DATA / "golden_vectors.csv"), "--output", str(stream)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["decode", "--codebook", codebook, "--input", str(stream),
                               "--output", str(recon)])
    assert res.exit_code == 0, res.output
    assert stream.read_bytes() == (DATA / f"{book}.cpc").read_bytes()
    assert recon.read_bytes() == (DATA / f"{book}_decoded.csv").read_bytes()


GOLDEN_DESIGNS = {
    "common_v1": ["--n", "6", "--j", "2", "--variant", "1", "--mode", "common",
                  "--composition", "2,2,2", "--seed", "7"],
    "wsc_fixed_v1": ["--n", "7", "--j", "3", "--variant", "1", "--mode", "wsc-fixed",
                     "--rate", "1.5", "--seed", "1"],
    "wsc_fixed_v2": ["--n", "7", "--j", "3", "--variant", "2", "--mode", "wsc-fixed",
                     "--rate", "2", "--seed", "2"],
    "wsc_var_v1": ["--n", "7", "--j", "2", "--variant", "1", "--mode", "wsc-var",
                   "--rate", "1.2", "--seed", "3"],
    "wsc_var_v2": ["--n", "7", "--j", "2", "--variant", "2", "--mode", "wsc-var",
                   "--rate", "2", "--g-lambda", "lambda24", "--no-conjecture-filter",
                   "--seed", "4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DESIGNS))
def test_golden_design_files(runner, tmp_path, name):
    """Codebooks and design reports, Lloyd trajectory and rate allocation
    included, stay byte for byte the pinned ones."""
    out = tmp_path / "cb.json"
    res = runner.invoke(main, ["design", *GOLDEN_DESIGNS[name], "--samples", "20000",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (DATA / f"golden_design_{name}.json").read_bytes()


@pytest.mark.parametrize("threads", ["1", "3"])
def test_golden_eval(runner, tmp_path, threads):
    """Three codebooks (two variants, two n; three shards) evaluate to the
    bytes that the one-codebook-at-a-time evaluator wrote."""
    out = tmp_path / "rd.csv"
    books = [str(DATA / f"{b}.json") for b in ("golden_v1", "golden_n9", "golden_v2")]
    res = runner.invoke(main, ["eval", *(a for b in books for a in ("--codebook", b)),
                               "--samples", "150000", "--seed", "11", "--baselines", "bound",
                               "--threads", threads, "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (DATA / "golden_rd.csv").read_bytes()


@pytest.mark.parametrize("sigma, golden", [("1", "golden_baselines.csv"),
                                           ("2.5", "golden_baselines_sigma2.5.csv")])
def test_golden_baselines(runner, tmp_path, sigma, golden):
    """The ECSQ, ECUSQ and bound rows stay byte for byte what scipy's ndtr gave."""
    out = tmp_path / "rd.csv"
    res = runner.invoke(main, ["eval", "--baselines", "ecsq,ecusq,bound", "--sigma", sigma,
                               "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (DATA / golden).read_bytes()


# Runs each argv of the JSON list in sys.argv[1] through the command line, in order.
_RUN_ARGVS = ("import json, sys\nfrom cpcodes.cli import main\n"
              "for argv in json.loads(sys.argv[1]): main.main(args=argv, standalone_mode=False)")


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's cpcodes."""
    src = str(Path(cpcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, timeout=120, capture_output=True,
                          text=True)


def _loaded_after(probe: str, prefixes: tuple[str, ...], *args: str) -> list[str]:
    """Names of the modules starting with one of ``prefixes`` that are loaded
    after ``probe`` runs, with ``args`` as its argv, in a fresh interpreter."""
    report = f"\nimport sys\nprint('loaded:', *sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    run = _python("-c", probe + report, *args)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split()[1:]


def test_import_skips_scipy_stats():
    """Importing the command line loads no scipy module at all, nor the numpy.f2py
    that scipy's array-API shims pull in."""
    assert _loaded_after("import cpcodes.cli", ("scipy", "numpy.f2py")) == []


def test_codec_and_lloyd_commands_skip_scipy_special(tmp_path):
    """No command loads any scipy module: encode, decode, ratepoints, eval and
    the designs of all four modes, the wsc ones with their chi-law gain
    quantizer and special-function constants, and every manifest's versions."""
    stream = str(tmp_path / "x.cpc")
    runs = [
        ["encode", "--codebook", str(DATA / "golden_v1.json"),
         "--input", str(DATA / "golden_vectors.csv"), "--output", stream],
        ["decode", "--codebook", str(DATA / "golden_v1.json"), "--input", stream,
         "--output", str(tmp_path / "x.csv")],
        ["ratepoints", "--n-range", "2:4", "--j-range", "1:2", "--output", str(tmp_path / "r.csv")],
        design_args(str(tmp_path / "cb.json")),
        design_args(str(tmp_path / "general.json"), **{"--mode": "general"}),
        ["eval", "--codebook", str(DATA / "golden_v1.json"), "--samples", "2000",
         "--baselines", "ecsq,ecusq,bound", "--output", str(tmp_path / "rd.csv")],
    ]
    runs += [["design", *GOLDEN_DESIGNS[name], "--samples", "20000",
              "--out", str(tmp_path / f"{name}.json")] for name in ("wsc_fixed_v2", "wsc_var_v2")]
    assert _loaded_after(_RUN_ARGVS, ("scipy",), json.dumps(runs)) == []
    assert (tmp_path / "x.csv").read_bytes() == (DATA / "golden_v1_decoded.csv").read_bytes()
    for name in ("wsc_fixed_v2", "wsc_var_v2"):
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (DATA / f"golden_design_{name}.json").read_bytes()


_DESIGN_MODULES = ("cpcodes.design", "cpcodes.wsc", "cpcodes.evaluation", "cpcodes.order_stats")


def test_each_command_loads_only_what_it_runs(tmp_path):
    """encode and decode load the codec but no designer, evaluator or
    order-statistic module; ratepoints loads not even the codec; a
    common-composition design loads neither the wsc designer nor the evaluator."""
    stream = str(tmp_path / "x.cpc")
    encode = ["encode", "--codebook", str(DATA / "golden_v1.json"),
              "--input", str(DATA / "golden_vectors.csv"), "--output", stream]
    decode = ["decode", "--codebook", str(DATA / "golden_v1.json"),
              "--input", str(DATA / "golden_v1.cpc"), "--output", str(tmp_path / "x.csv")]
    for argv in (encode, decode):
        assert _loaded_after(_RUN_ARGVS, _DESIGN_MODULES, json.dumps([argv])) == []
    ratepoints = ["ratepoints", "--n-range", "2:4", "--j-range", "1:2",
                  "--output", str(tmp_path / "r.csv")]
    assert _loaded_after(_RUN_ARGVS, _DESIGN_MODULES + ("cpcodes.codec",),
                         json.dumps([ratepoints])) == []
    design = design_args(str(tmp_path / "cb.json"))
    assert _loaded_after(_RUN_ARGVS, ("cpcodes.wsc", "cpcodes.evaluation"),
                         json.dumps([design])) == []
    assert Path(stream).read_bytes() == (DATA / "golden_v1.cpc").read_bytes()
    assert (tmp_path / "x.csv").read_bytes() == (DATA / "golden_v1_decoded.csv").read_bytes()


class TestProcessEntry:
    """``python -m cpcodes.cli`` enters through ``run``, as the installed ``cpc`` does."""

    def test_bad_usage_exits_2(self, tmp_path):
        out = tmp_path / "x.json"
        run = _python("-m", "cpcodes.cli", "design", "--n", "6", "--j", "2", "--mode", "wsc-var",
                      "--rate", "inf", "--samples", "10000", "--out", str(out))
        assert run.returncode == 2, run.stderr
        assert "--rate must be positive and finite" in run.stderr
        assert not out.exists()

    def test_bad_input_row_exits_4(self, tmp_path):
        vecs = tmp_path / "x.csv"
        vecs.write_text("1,2,3,4,5,6\n1,2,3\n")
        run = _python("-m", "cpcodes.cli", "encode", "--codebook", str(DATA / "golden_v1.json"),
                      "--input", str(vecs), "--output", str(tmp_path / "x.cpc"))
        assert run.returncode == 4, run.stderr
        assert "row 2: expected 6 values, got 3" in run.stderr

    def test_run_freezes_and_main_does_not(self):
        probe = ("import gc, sys\nfrom cpcodes.cli import main, run\n"
                 "main.main(args=['--help'], standalone_mode=False)\n"
                 "print('frozen:', gc.get_freeze_count())\n"
                 "sys.argv = ['cpc', '--help']\n"
                 "try:\n    run()\nexcept SystemExit as exc:\n"
                 "    print('frozen:', gc.get_freeze_count(), exc.code)")
        run = _python("-c", probe)
        assert run.returncode == 0, run.stderr
        before, after = [line.split()[1:] for line in run.stdout.splitlines()
                         if line.startswith("frozen:")]
        assert before == ["0"] and int(after[0]) > 0 and after[1] == "0"


def test_eval_skips_scipy_special(tmp_path):
    """eval evaluates its baselines' normal CDF without scipy.special, with
    or without a codebook."""
    out = str(tmp_path / "rd.csv")
    runs = [
        ["eval", "--codebook", str(DATA / "golden_v1.json"), "--samples", "2000",
         "--baselines", "ecsq,ecusq,bound", "--output", str(tmp_path / "cb.csv")],
        ["eval", "--baselines", "ecsq,ecusq,bound", "--output", out],
    ]
    assert _loaded_after(_RUN_ARGVS, ("scipy.special",), json.dumps(runs)) == []
    assert Path(out).read_bytes() == (DATA / "golden_baselines.csv").read_bytes()


class TestEval:
    @pytest.fixture
    def codebook(self, runner, tmp_path):
        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out))
        assert res.exit_code == 0, res.output
        return out

    def test_deterministic_bytes(self, runner, tmp_path, codebook):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        for out in (out1, out2):
            res = runner.invoke(main, ["eval", "--codebook", codebook, "--samples", "50000",
                                       "--seed", "3", "--output", out])
            assert res.exit_code == 0, res.output
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_thread_count_does_not_change_bytes(self, runner, tmp_path, codebook):
        out1 = str(tmp_path / "t1.csv")
        out8 = str(tmp_path / "t8.csv")
        for out, threads in ((out1, "1"), (out8, "8")):
            res = runner.invoke(main, ["eval", "--codebook", codebook, "--samples", "200000",
                                       "--seed", "3", "--threads", threads, "--output", out])
            assert res.exit_code == 0, res.output
        assert open(out1, "rb").read() == open(out8, "rb").read()

    def test_exact_formula_cross_check(self, runner, tmp_path):
        from cpcodes.combinatorics import Composition
        from cpcodes.design import optimal_levels_single, pc_distortion_exact
        from cpcodes.order_stats import gaussian_order_stats

        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out, **{"--n": "7", "--j": "1",
                                                      "--composition": "3,2,2",
                                                      "--samples": "100000"}))
        assert res.exit_code == 0
        rd = str(tmp_path / "rd.csv")
        res = runner.invoke(main, ["eval", "--codebook", out, "--samples", "100000",
                                   "--seed", "5", "--output", rd])
        assert res.exit_code == 0
        header, row = open(rd).read().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        t = gaussian_order_stats(7)
        code = load_code(out)
        exact = pc_distortion_exact(code.subcodes[0], t)
        assert abs(float(fields["distortion"]) - exact) <= 3.0 * float(fields["stderr"])

    def test_bound_baseline_rows(self, runner, tmp_path):
        rd = str(tmp_path / "rd.csv")
        res = runner.invoke(main, ["eval", "--baselines", "bound", "--output", rd])
        assert res.exit_code == 0
        rows = [line.split(",") for line in open(rd).read().splitlines()[1:]]
        assert all(r[0] == "bound" for r in rows)
        for r in rows:
            assert float(r[4]) == pytest.approx(2.0 ** (-2.0 * float(r[3])), rel=1e-12)

    def test_unknown_baseline_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["eval", "--baselines", "huh",
                                   "--output", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_nothing_to_do_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["eval", "--output", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_too_few_samples_usage_error(self, runner, tmp_path, monkeypatch):
        from cpcodes import evaluation

        drawn = []
        monkeypatch.setattr(evaluation, "substream", lambda *args: drawn.append(args))
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", "--codebook", str(DATA / "golden_v1.json"),
                                   "--samples", "10", "--output", str(out)])
        assert res.exit_code == 2
        assert "--samples must be at least 1000" in res.output
        assert drawn == [] and not out.exists()
        # baselines alone need no samples
        res = runner.invoke(main, ["eval", "--baselines", "bound", "--samples", "10",
                                   "--output", str(out)])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
    def test_bad_sigma_usage_error(self, runner, tmp_path, sigma):
        out = tmp_path / "rd.csv"
        for source in (["--baselines", "ecsq"], ["--codebook", str(DATA / "golden_v1.json")]):
            res = runner.invoke(main, ["eval", *source, "--sigma", sigma, "--output", str(out)])
            assert res.exit_code == 2, res.output
            assert "--sigma must be positive and finite" in res.output
            assert not out.exists()


class TestSeedsAndThreads:
    """A negative seed, or a thread count below 1 or not an integer (from
    ``--threads`` or ``CPC_THREADS``), is bad usage: exit 2, before any
    sample is drawn or any worker thread started."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from cpcodes import design, evaluation

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((evaluation, "ThreadPoolExecutor"), (evaluation, "substream"),
                             (design, "design_common_composition"), (design, "substream")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--threads", "0"),
                                               ("--threads", "-2"), ("--threads", "1.5")])
    def test_eval_option(self, runner, tmp_path, option, value):
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", "--codebook", str(DATA / "golden_v1.json"),
                                   option, value, "--output", str(out)])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{option}'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_eval_environment(self, runner, tmp_path, value):
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", "--codebook", str(DATA / "golden_v1.json"),
                                   "--output", str(out)], env={"CPC_THREADS": value})
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--threads'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["wsc-var", "wsc-fixed"])
    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_design_environment(self, runner, tmp_path, mode, value):
        out = tmp_path / "cb.json"
        args = design_args(str(out), **{"--mode": mode, "--composition": None, "--rate": "1.5"})
        res = runner.invoke(main, args, env={"CPC_THREADS": value})
        assert res.exit_code == 2, res.output
        assert "bad CPC_THREADS" in res.output
        assert not out.exists()

    def test_design_seed(self, runner, tmp_path):
        out = tmp_path / "cb.json"
        res = runner.invoke(main, design_args(str(out), **{"--seed": "-1"}))
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--seed'" in res.output
        assert not out.exists()


class TestRatepoints:
    def test_matches_library(self, runner, tmp_path):
        out = str(tmp_path / "census.csv")
        res = runner.invoke(main, ["ratepoints", "--n-range", "2:6", "--j-range", "1:3",
                                   "--output", out])
        assert res.exit_code == 0, res.output
        lines = open(out).read().splitlines()
        assert lines[0] == "n,J,count"
        for line in lines[1:]:
            n, j, count = (int(v) for v in line.split(","))
            assert count == rate_point_census(n, j).count

    def test_spot_values(self, runner, tmp_path):
        out = str(tmp_path / "census.csv")
        res = runner.invoke(main, ["ratepoints", "--n-range", "2:8", "--j-range", "1:4",
                                   "--output", out])
        assert res.exit_code == 0
        table = {}
        for line in open(out).read().splitlines()[1:]:
            n, j, count = (int(v) for v in line.split(","))
            table[(n, j)] = count
        assert table[(6, 3)] == 207
        assert table[(2, 1)] == 2
        assert table[(8, 4)] == 3888

    def test_guard_exit6(self, runner, tmp_path):
        res = runner.invoke(main, ["ratepoints", "--n-range", "9:9", "--j-range", "4:4",
                                   "--limit", "10", "--output", str(tmp_path / "x.csv")])
        assert res.exit_code == 6

    def test_bad_range_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["ratepoints", "--n-range", "wat",
                                   "--output", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("option,text", [("--n-range", "0:2"), ("--n-range", "1:3"),
                                             ("--j-range", "0:2"), ("--n-range", "3:2"),
                                             ("--j-range", "2:1")])
    def test_out_of_domain_range_usage_error(self, runner, tmp_path, option, text):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["ratepoints", option, text, "--output", str(out)])
        assert res.exit_code == 2, res.output
        assert f"bad {option} '{text}'" in res.output
        assert not out.exists()


class TestReplay:
    def test_reproduces_output_bytes(self, runner, tmp_path):
        out = str(tmp_path / "rd.csv")
        res = runner.invoke(main, ["eval", "--baselines", "bound,ecsq", "--samples", "50000",
                                   "--output", out, "--manifest", str(tmp_path / "m.json")])
        assert res.exit_code == 0
        first = open(out, "rb").read()
        os.remove(out)
        res = runner.invoke(main, ["replay", str(tmp_path / "m.json")])
        assert res.exit_code == 0, res.output
        assert open(out, "rb").read() == first

    def test_design_replay(self, runner, tmp_path):
        out = str(tmp_path / "cb.json")
        res = runner.invoke(main, design_args(out))
        assert res.exit_code == 0
        first = open(out, "rb").read()
        os.remove(out)
        res = runner.invoke(main, ["replay", out + ".manifest.json"])
        assert res.exit_code == 0, res.output
        assert open(out, "rb").read() == first

    def test_replay_from_another_directory(self, runner, tmp_path, monkeypatch):
        run = tmp_path / "run"
        run.mkdir()
        monkeypatch.chdir(run)
        res = runner.invoke(main, design_args("cb.json"))
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["eval", "--codebook", "cb.json", "--samples", "20000",
                                   "--output", "rd.csv"])
        assert res.exit_code == 0, res.output
        first = {p: (run / p).read_bytes() for p in ("cb.json", "rd.csv")}
        for p in first:
            (run / p).unlink()
        monkeypatch.chdir(tmp_path)
        for manifest in ("run/cb.json.manifest.json", "run/rd.csv.manifest.json"):
            res = runner.invoke(main, ["replay", manifest])
            assert res.exit_code == 0, res.output
        assert {p: (run / p).read_bytes() for p in first} == first
        assert Path.cwd() == tmp_path
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    @pytest.fixture
    def coded(self, runner, tmp_path):
        codebook = str(tmp_path / "cb.json")
        assert runner.invoke(main, design_args(codebook, **{"--variant": "2"})).exit_code == 0
        vecs = str(tmp_path / "x.csv")
        write_vectors(vecs, np.random.default_rng(1).standard_normal((50, 6)))
        stream = str(tmp_path / "x.cpc")
        res = runner.invoke(main, ["encode", "--codebook", codebook, "--input", vecs,
                                   "--output", stream])
        assert res.exit_code == 0, res.output
        return codebook, vecs, stream

    @pytest.mark.parametrize("command", ["design", "encode", "decode", "eval", "ratepoints"])
    def test_every_command_replays(self, runner, tmp_path, coded, command):
        codebook, vecs, stream = coded
        out = str(tmp_path / f"{command}.out")
        argv = {
            "design": design_args(out, **{"--mode": "general", "--variant": "2"})
            + ["--composition", "1,2,3"],
            "encode": ["encode", "--codebook", codebook, "--input", vecs, "--output", out],
            "decode": ["decode", "--codebook", codebook, "--input", stream, "--output", out],
            "eval": ["eval", "--codebook", codebook, "--codebook", codebook, "--samples", "20000",
                     "--fixed-rate", "--threads", "2", "--baselines", "ecusq", "--output", out],
            "ratepoints": ["ratepoints", "--n-range", "2:5", "--j-range", "1:3",
                           "--limit", "100000", "--output", out],
        }[command]
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["argv"][0] == command
        assert manifest["outputs"] == [out]
        first = Path(out).read_bytes()
        os.remove(out)
        res = runner.invoke(main, ["replay", out + ".manifest.json"])
        assert res.exit_code == 0, res.output
        assert Path(out).read_bytes() == first
