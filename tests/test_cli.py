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

import goldens


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
        assert "scipy" not in manifest["versions"]

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

    def test_more_spheres_than_samples_refused_before_any_draw(self, runner, tmp_path, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a training row was drawn")

        monkeypatch.setattr("cpcodes.design.substream", no_draw)
        out = tmp_path / "x.json"
        res = runner.invoke(main, design_args(str(out), **{"--j": "20000", "--samples": "10000"}))
        assert res.exit_code == 3, res.output
        assert "design infeasible: J=20000 is more than sample_count=10000" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_memory_error_exits_6(self, runner, tmp_path, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.43 GiB")

        monkeypatch.setattr("cpcodes.design._training_stream", no_memory)
        out = tmp_path / "x.json"
        res = runner.invoke(main, design_args(str(out)))
        assert res.exit_code == 6, res.output
        assert "resource guard: Unable to allocate 1.43 GiB" in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_partition_guard_exits_6(self, runner, tmp_path):
        """A wsc design at n = 71 (more than 2**22 partitions) is refused
        under the default filter too, before any partition is made."""
        out = tmp_path / "x.json"
        res = runner.invoke(main, design_args(str(out), **{
            "--n": "71", "--mode": "wsc-fixed", "--composition": None, "--rate": "1",
            "--samples": "10000"}))
        assert res.exit_code == 6, res.output
        assert "resource guard: partition enumeration for n=71" in res.output
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
        monkeypatch.setattr("cpcodes.design._training_stream", no_draw)
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

    @pytest.mark.parametrize("mode, rate", [("wsc-fixed", "64"), ("wsc-var", "100")])
    def test_too_high_rate_exits_3(self, runner, tmp_path, monkeypatch, mode, rate):
        """A rate whose size targets overflow a double is infeasible, refused
        before any training sample is drawn and without a RuntimeWarning."""
        def no_draw(*args):
            raise AssertionError("training samples drawn for an infeasible rate")

        monkeypatch.setattr("cpcodes.design.substream", no_draw)
        out = tmp_path / "x.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["design", "--n", "16", "--j", "2", "--mode", mode,
                                       "--rate", rate, "--samples", "10000", "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert f"design infeasible: rate {float(rate)} bits/sample is too high" in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1", "1e51", "1e-51"])
    @pytest.mark.parametrize("mode", ["common", "general", "wsc-var", "wsc-fixed"])
    def test_non_finite_sigma_exits_3(self, runner, tmp_path, monkeypatch, mode, sigma):
        """A NaN, infinite, zero or negative sigma, or one outside [1e-50,
        1e50], is bad usage, exit 2 as in eval (the name predates that),
        refused before any sample is drawn, so no numpy RuntimeWarning is
        raised on the way."""
        def no_draw(*args):
            raise AssertionError("training samples drawn for a bad sigma")

        monkeypatch.setattr("cpcodes.design.substream", no_draw)
        extra = {"--composition": None, "--rate": "1.5"} if mode.startswith("wsc") else {}
        args = design_args(str(tmp_path / "x.json"), **{"--mode": mode, "--sigma": sigma, **extra})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "--sigma must be positive and finite" in res.output
        assert "RuntimeWarning" not in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, message", [
        (["--composition", "2,2"], "composition 2,2 sums to 4, not --n 6"),
        (["--mode", "general", "--composition", "2,2"], "composition 2,2 sums to 4, not --n 6"),
        (["--mode", "general", "--composition", "2,2,2", "--composition", "3,2"],
         "composition 3,2 sums to 5, not --n 6"),
    ])
    def test_composition_not_summing_to_n_is_usage_error(self, runner, tmp_path, monkeypatch,
                                                         argv, message):
        """Checked before any order-statistic table is built or row drawn."""
        def refuse(*args):
            raise AssertionError("design work started for a bad composition")

        monkeypatch.setattr("cpcodes.order_stats.gaussian_order_stats", refuse)
        monkeypatch.setattr("cpcodes.design.substream", refuse)
        out = tmp_path / "x.json"
        res = runner.invoke(main, ["design", "--n", "6", "--j", "2", "--samples", "20000",
                                   "--out", str(out), *argv])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["encode", "decode", "eval"])
    def test_nan_probs_codebook_exit4(self, runner, tmp_path, command):
        """json reads NaN, and a NaN passes a bare "sums to 1" check."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"variant": 1, "n": 2, "probs": [NaN], '
                       '"subcodes": [{"parts": [1, 1], "levels": [0.5, 0.1]}]}')
        data = tmp_path / "in"
        data.write_text("")
        paths = ["--input", str(data), "--output", str(tmp_path / "out")]
        argv = {"encode": paths, "decode": paths,
                "eval": ["--samples", "20000", "--output", str(tmp_path / "out")]}[command]
        res = runner.invoke(main, [command, "--codebook", str(bad), *argv])
        assert res.exit_code == 4, res.output
        assert res.output.startswith(f"bad codebook {bad}: probabilities must be")

    @pytest.mark.parametrize("command", ["encode", "decode", "eval"])
    @pytest.mark.parametrize("key, value", [
        ("variant", 1.7), ("variant", "1"), ("variant", True), ("n", 6.9),
        ("levels", ["1.5", "0.5", "-1.0"]), ("levels", [1.5, 0.5, False]),
        ("parts", [True, 2, 3]), ("parts", [1.0, 2, 3]), ("probs", ["0.5", 0.25, 0.25]),
    ])
    def test_codebook_value_of_wrong_type_exit4(self, runner, tmp_path, command, key, value):
        """A value json reads as another type than the codebook's is bad input,
        not converted: a float or string variant, n or part, a bool part, a
        string or bool level or probability."""
        doc = json.loads((DATA / "golden_v1.json").read_text())
        if key in ("levels", "parts"):
            doc["subcodes"][0][key] = value
        else:
            doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = {
            "encode": ["--input", str(DATA / "golden_vectors.csv")],
            "decode": ["--input", str(DATA / "golden_v1.cpc")],
            "eval": ["--samples", "2000"],
        }[command]
        out = tmp_path / "out"
        res = runner.invoke(main, [command, "--codebook", str(bad), *argv, "--output", str(out)])
        assert res.exit_code == 4, res.output
        assert res.output.startswith(f"bad codebook {bad}: ") and "must be JSON" in res.output
        assert not out.exists()

    def test_codebook_level_past_a_double_exit4(self, runner, tmp_path):
        doc = json.loads((DATA / "golden_v1.json").read_text())
        doc["subcodes"][0]["levels"][0] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, ["encode", "--codebook", str(bad), "--input",
                                   str(DATA / "golden_vectors.csv"), "--output", str(tmp_path / "o")])
        assert res.exit_code == 4, res.output
        assert res.output.startswith(f"bad codebook {bad}: ")

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

    def test_undecodable_vectors_exit4(self, runner, tmp_path):
        vecs = tmp_path / "x.csv"
        vecs.write_bytes(b"\xff\xfe1,2,3,4,5,6\n")
        res = runner.invoke(main, ["encode", "--codebook", str(DATA / "golden_v1.json"),
                                   "--input", str(vecs), "--output", str(tmp_path / "o.cpc")])
        assert res.exit_code == 4, res.output
        assert res.exception.__class__ is SystemExit
        assert res.output.startswith(f"{vecs} is not a text file of vectors: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    def test_corrupt_stream_exit5(self, runner, tmp_path, codebook):
        bad = str(tmp_path / "bad.cpc")
        with open(bad, "wb") as fp:
            fp.write(b"garbage stream")
        res = runner.invoke(main, ["decode", "--codebook", codebook, "--input", bad,
                                   "--output", str(tmp_path / "r.csv")])
        assert res.exit_code == 5


DATA = Path(__file__).parent / "data"


def _reproduces(runner, tmp_path, name, **kwargs):
    """Entry ``name`` of ``tests/data/goldens.json``, run in process, writes its golden."""
    out = tmp_path / name
    res = runner.invoke(main, goldens.argv(name, out), **kwargs)
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == goldens.golden(name)


@pytest.mark.parametrize("book", ["golden_v1", "golden_v2"])
def test_golden_streams(runner, tmp_path, book):
    """Streams and reconstructions of a pinned corpus with exact and one-ulp
    ties and signed zeros stay byte for byte what the per-vector encoder wrote."""
    for step in ("encode", "decode"):
        _reproduces(runner, tmp_path, f"{step}_{book.removeprefix('golden_')}")


@pytest.mark.parametrize("name", [n.removeprefix("design_") for n in goldens.ENTRIES
                                  if n.startswith("design_")])
def test_golden_design_files(runner, tmp_path, name):
    """Codebooks and design reports, Lloyd trajectory and rate allocation
    included, stay byte for byte the pinned ones."""
    _reproduces(runner, tmp_path, f"design_{name}")


@pytest.mark.parametrize("threads", ["1", "3"])
def test_golden_eval(runner, tmp_path, threads):
    """Three codebooks (two variants, two n; three shards) evaluate to the
    bytes that the one-codebook-at-a-time evaluator wrote."""
    _reproduces(runner, tmp_path, f"rd_threads{threads}")


# ids read SIGMA-GOLDEN: the sigma, then the golden file's name
@pytest.mark.parametrize("name", [pytest.param(name, id=f"{sigma}-{goldens.ENTRIES[name]['golden']}")
                                  for sigma, name in [("1", "baselines"), ("2.5", "baselines_sigma2.5")]])
def test_golden_baselines(runner, tmp_path, name):
    """The ECSQ, ECUSQ and bound rows stay byte for byte what scipy's ndtr gave."""
    _reproduces(runner, tmp_path, name)


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


_TABLE_READS = ("\nfrom cpcodes.combinatorics import Composition\n"
                "from cpcodes.design import optimal_levels_single, pc_distortion_exact\n"
                "from cpcodes.order_stats import gaussian_order_stats\n"
                "for n in (1, 7, 16, 64):\n"
                "    gaussian_order_stats(n).mean_xi, gaussian_order_stats(n).second_eta\n"
                "table = gaussian_order_stats(7)\n"
                "pc_distortion_exact(optimal_levels_single(Composition((3, 2, 2)), table), table)")


def test_codec_and_lloyd_commands_skip_scipy_special(tmp_path):
    """No command loads any scipy module: encode, decode, ratepoints, eval with
    and without a codebook and the designs of all four modes, the wsc ones with
    their chi-law gain quantizer and special-function constants, and every
    manifest's versions.  Nor do the order-statistic moment tables and the
    single-code level and distortion formulas read from them."""
    golden_runs = ["encode_v1", "decode_v1", "ratepoints", "baselines",
                   "design_wsc_fixed_v2", "design_wsc_var_v2"]
    runs = [
        design_args(str(tmp_path / "cb.json")),
        design_args(str(tmp_path / "general.json"), **{"--mode": "general"}),
        ["eval", "--codebook", str(DATA / "golden_v1.json"), "--samples", "2000",
         "--baselines", "ecsq,ecusq,bound", "--output", str(tmp_path / "rd.csv")],
        *(goldens.argv(name, tmp_path / name) for name in golden_runs),
    ]
    assert _loaded_after(_RUN_ARGVS + _TABLE_READS, ("scipy",), json.dumps(runs)) == []
    for name in golden_runs:
        assert (tmp_path / name).read_bytes() == goldens.golden(name)


def test_each_command_loads_only_what_it_runs(tmp_path):
    """Each command loads exactly the modules README lists under "Process
    start and exit".  A common or general design loads the codec but
    neither the evaluator, cephes nor the wsc designer, so the Monte Carlo
    scoring loop that it shares with eval lives in the codec.  A wsc design
    computes no moment table, so it does not load order_stats."""
    def golden_run(name):
        return goldens.argv(name, tmp_path / name)

    evaluate = ["eval", "--codebook", str(DATA / "golden_v1.json"), "--samples", "2000",
                "--output", str(tmp_path / "rd.csv")]
    counted = ["cli", "combinatorics", "streams"]
    coded = counted + ["codec"]
    designed = coded + ["design"]
    runs = [
        (golden_run("ratepoints"), counted),
        (golden_run("encode_v1"), coded),
        (golden_run("decode_v1"), coded),
        (design_args(str(tmp_path / "cb.json")), designed + ["order_stats"]),
        (design_args(str(tmp_path / "general.json"), **{"--mode": "general"}),
         designed + ["order_stats"]),
        (evaluate, coded + ["cephes", "evaluation"]),
        *((golden_run(name), designed + ["wsc", "cephes", "evaluation"])
          for name in ("design_wsc_fixed_v1", "design_wsc_var_v1")),
    ]
    for argv, modules in runs:
        loaded = _loaded_after(_RUN_ARGVS, ("cpcodes.",), json.dumps([argv]))
        assert loaded == sorted(f"cpcodes.{m}" for m in modules), argv
    for name in ("encode_v1", "decode_v1"):
        assert (tmp_path / name).read_bytes() == goldens.golden(name)


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

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_usage_error(self, runner, tmp_path, samples):
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", "--baselines", "bound", "--samples", samples,
                                   "--output", str(out)])
        assert res.exit_code == 2, res.output
        assert "--samples" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf", "1e51", "1e-51"])
    def test_bad_sigma_usage_error(self, runner, tmp_path, sigma):
        out = tmp_path / "rd.csv"
        for source in (["--baselines", "ecsq"], ["--codebook", str(DATA / "golden_v1.json")]):
            res = runner.invoke(main, ["eval", *source, "--sigma", sigma, "--output", str(out)])
            assert res.exit_code == 2, res.output
            assert "--sigma must be positive and finite" in res.output
            assert not out.exists()


class TestSeedsAndThreads:
    """A negative seed, or a thread count below 1 or not an integer (from
    ``--threads`` or ``CPC_THREADS``), is bad usage for ``cpc eval``: exit 2,
    before any sample is drawn or any worker thread started.  ``cpc eval``
    is the one reader of ``CPC_THREADS``; a design runs on one thread."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        from cpcodes import design, evaluation

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((evaluation, "ThreadPoolExecutor"), (evaluation, "substream"),
                             (design, "design_common_composition"), (design, "substream")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.usefixtures("no_work")
    @pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--threads", "0"),
                                               ("--threads", "-2"), ("--threads", "1.5")])
    def test_eval_option(self, runner, tmp_path, option, value):
        out = tmp_path / "rd.csv"
        res = runner.invoke(main, ["eval", "--codebook", str(DATA / "golden_v1.json"),
                                   option, value, "--output", str(out)])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{option}'" in res.output
        assert not out.exists()

    @pytest.mark.usefixtures("no_work")
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
        """A wsc design, whose evaluation pass runs the eval shards, reads no
        CPC_THREADS: under any value it writes the golden bytes."""
        _reproduces(runner, tmp_path, f"design_{mode.replace('-', '_')}_v1",
                    env={"CPC_THREADS": value})

    @pytest.mark.usefixtures("no_work")
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

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_usage_error(self, runner, tmp_path, limit):
        """A work bound below 1 is bad usage, not a resource guard (exit 6)."""
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["ratepoints", "--limit", limit, "--output", str(out)])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--limit'" in res.output
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

    @pytest.mark.parametrize("text", [
        "not json",
        '[["ratepoints"]]',
        '{"argv": "ratepoints"}',
        '{"argv": []}',
        '{"argv": ["ratepoints", 2]}',
        '{"argv": ["ratepoints"], "cwd": ["."]}',
        '{"argv": ["replay", "m.json"]}',
    ], ids=["not-json", "list", "argv-string", "argv-empty", "argv-not-strings", "cwd-list",
            "argv-replay"])
    def test_not_a_manifest_is_usage_error(self, runner, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        res = runner.invoke(main, ["replay", str(manifest)])
        assert res.exit_code == 2, res.output
        assert res.exception.__class__ is SystemExit and "Traceback" not in res.output
        assert f"{manifest} is not a cpc run manifest" in res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

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


def _one_run(command: str, out: str) -> list[str]:
    """A quick argv of ``command`` writing ``out``, from the pinned inputs."""
    golden = str(DATA / "golden_v1.json")
    return {
        "design": design_args(out),
        "encode": ["encode", "--codebook", golden, "--input", str(DATA / "golden_vectors.csv"),
                   "--output", out],
        "decode": ["decode", "--codebook", golden, "--input", str(DATA / "golden_v1.cpc"),
                   "--output", out],
        "eval": ["eval", "--baselines", "ecsq,ecusq,bound", "--output", out],
        "ratepoints": ["ratepoints", "--n-range", "2:4", "--j-range", "1:2", "--output", out],
    }[command]


COMMANDS = ["design", "encode", "decode", "eval", "ratepoints"]


class TestOutputs:
    """Every output is written beside its path and renamed into place, so a
    re-run replaces a file instead of truncating it, and a failed command
    leaves the previous one; a target that is not a regular file is written in
    place."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_rerun_replaces_with_identical_bytes(self, runner, tmp_path, command):
        out = tmp_path / "out"
        manifest = tmp_path / "out.manifest.json"
        res = runner.invoke(main, _one_run(command, str(out)))
        assert res.exit_code == 0, res.output
        first, inode = out.read_bytes(), out.stat().st_ino
        manifest_inode = manifest.stat().st_ino
        res = runner.invoke(main, _one_run(command, str(out)))
        assert res.exit_code == 0, res.output
        assert out.read_bytes() == first
        assert out.stat().st_ino != inode and manifest.stat().st_ino != manifest_inode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.manifest.json"]

    def test_symlink_output_writes_its_target(self, runner, tmp_path):
        target, link = tmp_path / "real.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        res = runner.invoke(main, _one_run("ratepoints", str(link)))
        assert res.exit_code == 0, res.output
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert target.read_text().splitlines()[0] == "n,J,count"
        assert not list(tmp_path.glob("*.part"))

    def test_fifo_output_is_written_in_place(self, runner, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # A reader opened first lets the command's open for writing return.
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            os.set_blocking(fd, True)
            res = runner.invoke(main, [*_one_run("ratepoints", str(fifo)),
                                       "--manifest", str(tmp_path / "m.json")])
            assert res.exit_code == 0, res.output
            received = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert received.decode().splitlines()[:2] == ["n,J,count", "2,1,2"]
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "m.json"]

    def test_stale_part_file_of_this_pid_is_left_alone(self, runner, tmp_path):
        """A ``.part`` left by an earlier process with this pid neither makes
        the command fail nor is removed."""
        clean = tmp_path / "clean"
        clean.mkdir()
        res = runner.invoke(main, _one_run("ratepoints", str(clean / "r.csv")))
        assert res.exit_code == 0, res.output
        run = tmp_path / "run"
        run.mkdir()
        stale = [run / f"r.csv.{os.getpid()}.part", run / f"r.csv.manifest.json.{os.getpid()}.part"]
        for path in stale:
            path.write_text("stale\n")
        res = runner.invoke(main, _one_run("ratepoints", str(run / "r.csv")))
        assert res.exit_code == 0, res.output
        assert (run / "r.csv").read_bytes() == (clean / "r.csv").read_bytes()
        assert [path.read_text() for path in stale] == ["stale\n"] * 2
        assert sorted(p.name for p in run.iterdir()) == sorted(
            ["r.csv", "r.csv.manifest.json", *(path.name for path in stale)])

    def test_failed_write_leaves_the_previous_output(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "x.cpc"
        res = runner.invoke(main, _one_run("encode", str(out)))
        assert res.exit_code == 0, res.output
        before = out.read_bytes()

        def half_written(fp, *args):
            fp.write(b"CPC")
            raise OSError("No space left on device")

        monkeypatch.setattr("cpcodes.codec.write_stream", half_written)
        res = runner.invoke(main, _one_run("encode", str(out)))
        assert res.exit_code == 1
        assert isinstance(res.exception, OSError)
        assert out.read_bytes() == before == (DATA / "golden_v1.cpc").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cpc", "x.cpc.manifest.json"]

    @pytest.mark.parametrize("case", ["output_in_missing_dir", "output_is_dir", "output_names_no_file",
                                      "manifest_in_missing_dir", "manifest_is_dir",
                                      "manifest_is_output"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_output_path_is_usage_error(self, runner, tmp_path, monkeypatch, command, case):
        """Refused before any work, so nothing is written: an output or manifest
        path in a directory that does not exist, naming a directory or ending in
        a separator, or a manifest path that is the output's, however spelled."""
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        from cpcodes import cli, codec, evaluation

        for module, name in ((codec, "load_code"), (cli, "rate_point_census"),
                             (evaluation, "ecusq_curve"), (design, "design_common_composition")):
            monkeypatch.setattr(module, name, refuse)
        (tmp_path / "d").mkdir()
        out, manifest = str(tmp_path / "x"), None
        if case == "output_in_missing_dir":
            out = str(tmp_path / "nope" / "x")
        elif case == "output_is_dir":
            out = str(tmp_path / "d")
        elif case == "output_names_no_file":
            out = str(tmp_path / "x") + os.sep
        elif case == "manifest_in_missing_dir":
            manifest = str(tmp_path / "nope" / "m.json")
        elif case == "manifest_is_dir":
            manifest = str(tmp_path / "d")
        else:
            manifest = str(tmp_path / "d" / ".." / "x")
        argv = _one_run(command, out) + (["--manifest", manifest] if manifest else [])
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output and res.exception.__class__ is SystemExit
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert not list((tmp_path / "d").iterdir())


@pytest.mark.parametrize("argv", [
    ["encode", "--codebook", "GOLDEN", "--input", "DIR", "--output", "OUT"],
    ["encode", "--codebook", "DIR", "--input", "VECTORS", "--output", "OUT"],
    ["decode", "--codebook", "DIR", "--input", "STREAM", "--output", "OUT"],
    ["decode", "--codebook", "GOLDEN", "--input", "DIR", "--output", "OUT"],
    ["eval", "--codebook", "DIR", "--output", "OUT"],
    ["replay", "DIR"],
], ids=["encode-input", "encode-codebook", "decode-codebook", "decode-input", "eval-codebook",
        "replay"])
def test_input_naming_a_directory_is_usage_error(runner, tmp_path, monkeypatch, argv):
    """Refused when the command line is parsed, so nothing is read or written."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    from cpcodes import codec

    monkeypatch.setattr(codec, "load_code", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    paths = {"DIR": str(tmp_path / "d"), "OUT": str(tmp_path / "x"),
             "GOLDEN": str(DATA / "golden_v1.json"), "VECTORS": str(DATA / "golden_vectors.csv"),
             "STREAM": str(DATA / "golden_v1.cpc")}
    res = runner.invoke(main, [paths.get(a, a) for a in argv])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output and res.exception.__class__ is SystemExit
    assert "is a directory" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
    assert not list((tmp_path / "d").iterdir())
