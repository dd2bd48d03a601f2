import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cpcodes
from cpcodes.cli import main
from cpcodes.codec import encode_cpc, load_code
from cpcodes.combinatorics import rate_point_census


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

    def test_infeasible_rate_exits_3(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["design", "--n", "2", "--j", "2", "--mode", "wsc-var", "--rate", "0.05",
             "--samples", "20000", "--out", str(tmp_path / "x.json")],
        )
        assert res.exit_code == 3

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


def test_import_skips_scipy_stats():
    src = str(Path(cpcodes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, cpcodes.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0


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
            + ["--composition", "1,2,3", "--no-conjecture-filter"],
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
