"""The benchmark's workloads: seeded inputs, the `cpc` commands one closed-loop
client sends in order, and the checks of their outputs.

Each check that fails marks the commands whose output it inspected as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

CODEBOOKS = Path(__file__).resolve().parent / "codebooks"
CODEC_BOOKS = ("codec_v1_common", "codec_v2_general")
EVAL_BOOKS = CODEC_BOOKS + ("eval_v1_general",)


@dataclass(frozen=True)
class Command:
    key: str  # names the command in the per-command figures, e.g. "encode"
    argv: tuple[str, ...]  # arguments after `cpc`


@dataclass
class Outcome:
    failures: dict[int, list[str]] = field(default_factory=dict)  # command index -> reasons
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)  # name -> (value, unit)
    distortion: float = math.nan

    def fail(self, indices, reason: str) -> None:
        for i in indices:
            self.failures.setdefault(i, []).append(reason)


class CodecRoundtrip:
    name = "codec_roundtrip"
    why = ("cpc encode then decode of a seeded n=16 corpus with ties and near-ties against two "
           "pinned codebooks: the per-vector codec path and CSV I/O, no design or eval")
    vectors = 8_000

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.books = {b: reference.load_codebook(CODEBOOKS / f"{b}.json") for b in CODEC_BOOKS}
        self.x = reference.make_corpus(seed, self.vectors, 16, list(self.books.values()))
        reference.write_csv(work / "corpus.csv", self.x)

    def commands(self, pass_no: int = 0) -> list[Command]:
        out = []
        for b in CODEC_BOOKS:
            book = str(CODEBOOKS / f"{b}.json")
            stream, recon = str(self.work / f"{b}.cpc"), str(self.work / f"{b}.csv")
            out.append(Command("encode", ("encode", "--codebook", book,
                                          "--input", str(self.work / "corpus.csv"), "--output", stream)))
            out.append(Command("decode", ("decode", "--codebook", book,
                                          "--input", stream, "--output", recon)))
        return out

    def check(self, encoded=None) -> Outcome:
        """``encoded`` maps a codebook to the reconstructions the encoder returned,
        when a traced run captured them."""
        res = Outcome()
        n = self.x.shape[1]
        stream_bytes = 0
        fixed_bits = 0.0
        sq_err = []
        for k, b in enumerate(CODEC_BOOKS):
            enc, dec = 2 * k, 2 * k + 1
            cb = self.books[b]
            stream = self.work / f"{b}.cpc"
            if not stream.is_file():
                res.fail([enc, dec], f"{b}: no stream written")
                continue
            stream_bytes += stream.stat().st_size
            fixed_bits += cb.rate_fixed() * n * len(self.x)
            try:
                rows = reference.read_csv(self.work / f"{b}.csv", n)
            except (OSError, ValueError) as exc:
                res.fail([dec], f"{b}: unreadable reconstructions: {exc}")
                continue
            for problem in reference.nearest_codeword_failures(self.x, rows, cb):
                res.fail([enc, dec], f"{b}: {problem}")
            if encoded is not None and b in encoded:
                w = encoded[b]
                if w.shape != rows.shape or not np.array_equal(w, rows):
                    res.fail([enc, dec], f"{b}: decoded rows differ from the encoder's reconstructions")
            if rows.shape == self.x.shape:
                sq_err.append(float(np.mean((self.x - rows) ** 2)))
        samples = len(CODEC_BOOKS) * self.x.size
        res.figures["stream_bits_per_sample"] = (stream_bytes * 8 / samples, "bit")
        res.figures["stream_bytes"] = (float(stream_bytes), "bytes")
        res.figures["stream_efficiency"] = (fixed_bits / (stream_bytes * 8) if stream_bytes else 0.0, "ratio")
        res.distortion = float(np.mean(sq_err)) if len(sq_err) == len(CODEC_BOOKS) else math.nan
        return res


class DesignSession:
    name = "design_session"
    why = ("cpc ratepoints, then cpc design in common, general and wsc-fixed modes: Lloyd loops, "
           "gain quantizer, order stats and census, no rank/unrank or streams")
    samples = 100_000
    census = ("2:13", "1:4")

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def commands(self, pass_no: int = 0) -> list[Command]:
        """Pass ``pass_no`` trains on its own seeded sample: Lloyd iteration counts,
        and with them the cost of a design, vary from one training set to the next."""
        w, s = self.work, str(1000 * self.seed + pass_no)
        common = ("design", "--n", "16", "--j", "3", "--samples", str(self.samples), "--seed", s)
        return [
            Command("ratepoints", ("ratepoints", "--n-range", self.census[0], "--j-range", self.census[1],
                                   "--output", str(w / "census.csv"))),
            Command("design_common", common + ("--variant", "1", "--mode", "common",
                                               "--composition", "4,4,4,4", "--out", str(w / "common.json"))),
            Command("design_general", common + ("--variant", "1", "--mode", "general",
                                                "--composition", "2,3,6,3,2", "--composition", "4,4,4,4",
                                                "--composition", "1,2,4,4,3,2", "--out", str(w / "general.json"))),
            Command("design_wsc", common + ("--variant", "2", "--mode", "wsc-fixed", "--rate", "1.75",
                                            "--out", str(w / "wsc.json"))),
        ]

    def check(self, encoded=None) -> Outcome:
        res = Outcome()
        try:
            with open(self.work / "census.csv") as fp:
                census = {(int(r["n"]), int(r["J"])): int(r["count"]) for r in csv.DictReader(fp)}
        except (OSError, KeyError, ValueError) as exc:
            res.fail([0], f"census unreadable: {exc}")
            census = {}
        lo, hi = (int(v) for v in self.census[0].split(":"))
        jlo, jhi = (int(v) for v in self.census[1].split(":"))
        if census and set(census) != {(n, j) for n in range(lo, hi + 1) for j in range(jlo, jhi + 1)}:
            res.fail([0], "census does not cover the requested (n, J) grid")
        for n, row in reference.TABLE_I.items():
            for j, expected in zip((1, 2, 3, 4), row):
                if (n, j) in census and census[(n, j)] != expected:
                    res.fail([0], f"census ({n},{j}) = {census[(n, j)]}, Table I says {expected}")
        ds = []
        for i, (out, variant) in enumerate((("common", 1), ("general", 1), ("wsc", 2)), start=1):
            try:
                with open(self.work / f"{out}.json") as fp:
                    doc = json.load(fp)
                cb = reference.load_codebook(self.work / f"{out}.json")
                d = float(doc["design"]["empirical_D"])
            except (OSError, KeyError, TypeError, ValueError) as exc:
                res.fail([i], f"{out}: unreadable codebook: {exc}")
                continue
            if (cb.n, cb.J, cb.variant) != (16, 3, variant):
                res.fail([i], f"{out}: n={cb.n} J={cb.J} variant={cb.variant}")
            if any(sum(p) != 16 for p in cb.parts) or any(
                not all(a > b for a, b in zip(lv, lv[1:])) for lv in cb.levels
            ):
                res.fail([i], f"{out}: compositions or levels malformed")
            if not 0.0 < d < 1.0:
                res.fail([i], f"{out}: empirical_D {d!r} outside (0, 1)")
            ds.append(d)
        res.distortion = float(np.mean(ds)) if len(ds) == 3 else math.nan
        res.figures["design_D"] = (res.distortion, "sigma2")
        return res


class EvalRD:
    name = "eval_rd"
    why = ("cpc eval of three pinned codebooks at 1M samples with baselines, on 2 threads and on "
           "1: batch sort and subcode distances, no per-vector codec")
    samples = 1_000_000
    reference_samples = 200_000
    baseline_rows = {"ecusq": 48, "ecsq": 48, "bound": 41}

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.books = [reference.load_codebook(CODEBOOKS / f"{b}.json") for b in EVAL_BOOKS]
        self.own = [reference.monte_carlo_distortion(cb, self.reference_samples, seed) for cb in self.books]

    def commands(self, pass_no: int = 0) -> list[Command]:
        args = ["eval"]
        for b in EVAL_BOOKS:
            args += ["--codebook", str(CODEBOOKS / f"{b}.json")]
        args += ["--samples", str(self.samples), "--seed", str(self.seed),
                 "--baselines", "ecsq,ecusq,bound"]
        return [
            Command("eval", tuple(args + ["--threads", "2", "--output", str(self.work / "rd_2t.csv")])),
            Command("eval_1t", tuple(args + ["--threads", "1", "--output", str(self.work / "rd_1t.csv")])),
        ]

    def check(self, encoded=None) -> Outcome:
        res = Outcome()
        try:
            two, one = ((self.work / f).read_bytes() for f in ("rd_2t.csv", "rd_1t.csv"))
        except OSError as exc:
            res.fail([0, 1], f"missing rd.csv: {exc}")
            return res
        if two != one:
            res.fail([0, 1], "--threads 1 and --threads 2 outputs differ")
        ds = []
        try:
            rows = list(csv.DictReader(two.decode().splitlines()))
            cpc = [r for r in rows if r["method"] in ("cpc", "pc")]
            if len(cpc) != len(self.books):
                res.fail([0, 1], f"{len(cpc)} codebook rows for {len(self.books)} codebooks")
            for r, (own, own_se), name in zip(cpc, self.own, EVAL_BOOKS):
                d, se = float(r["distortion"]), float(r["stderr"])
                if not abs(d - own) <= 4.0 * math.hypot(se, own_se):
                    res.fail([0, 1], f"{name}: distortion {d!r} vs independent {own!r} +- {own_se!r}")
                ds.append(d)
            for method, count in self.baseline_rows.items():
                got = [r for r in rows if r["method"] == method]
                if len(got) != count:
                    res.fail([0, 1], f"{len(got)} {method} rows, expected {count}")
                if method == "bound" and any(
                    abs(float(r["distortion"]) - 2.0 ** (-2.0 * float(r["rate_bits"]))) > 1e-12 for r in got
                ):
                    res.fail([0, 1], "bound rows are not 2^(-2R)")
        except (KeyError, TypeError, ValueError) as exc:
            res.fail([0, 1], f"rd.csv unreadable: {exc!r}")
        res.distortion = float(np.mean(ds)) if len(ds) == len(self.books) else math.nan
        return res


WORKLOADS = {w.name: w for w in (CodecRoundtrip, DesignSession, EvalRD)}
