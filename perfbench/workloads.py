"""Seeded inputs, jobs and output checks for the three workloads.

A workload is a list of input units (a map or a curve), each with the
jobs that run on it.  Units come from fixed strata (degree and size,
number of bad primes, height band), and the seed draws the values
inside each stratum, so every seed gives inputs of the same shape and
about the same cost.

Jobs go through `greenfield.cli.run` in-process, like a user's command,
except where no subcommand exists (`transfin_trend`) or where the
subcommand cannot print its own result (`multiples`, see
`multiples_thunk`).  Each job returns its raw output; the checks run after
the timed pass.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from greenfield import cli
from greenfield.basis import section_dim
from greenfield.experiments import (EllipticCurve, LattesSystem,
                                    multiples_search, transfin_trend)
from greenfield.homopoly import HomoForm, PolyMap, form_str, monomials_of_degree
from greenfield.pffield import Place

WORKLOADS = ("adelic", "elimination", "lattes")

# (first command, second command) whose per-pass totals are cmd1_s, cmd2_s
COMMANDS = {
    "adelic": ("adelic-report", "fekete"),
    "elimination": ("resultant", "transfin"),
    "lattes": ("multiples", "lehmer-scan"),
}

PRIMES = (2, 3, 5, 7, 11, 13)
ADELIC_DENS = (1, 2, 6)
ADELIC_NUMS = (5, 7, 11)
ADELIC_N = "4,8,16"
ADELIC_BUDGET = 300
FEKETE_N = 20
FEKETE_BUDGET = 300
DENSE_CASES = ((3, 3), (2, 3), (4, 2))  # (d, N)
TRANSFIN_N = 36
TRANSFIN_PRIMES = (2, 3)
# Depth 3 is left out: sympy's factor_list on the degree-64 preimage
# polynomial took 1.7 to 9.7 s on 7 of 126 curves in the height band,
# against a median of 0.54 s, a tail that made the pass time of a seed
# depend on whether it drew one of them.
LEHMER_DEPTHS = "0,1,2"
LATTES_CURVES = 24
# Curves k < MULTIPLES_CURVES also run multiples at n = MULTIPLES_N[k % 2].
MULTIPLES_CURVES = 4
MULTIPLES_N = (12, 14)
# Height band for Lattes base points: bits of the numerator plus bits of
# the denominator of x(40P), the size of the orbit entries the multiples
# search works on.
LATTES_BITS = (12800, 13600)
WITNESS_SLACK = 1e-6
MAX_DRAWS = 200


class JobFailed(Exception):
    """A CLI job exited with a nonzero code."""


class Discard(Exception):
    """The generated input violates a job precondition; draw another."""


@dataclass
class Job:
    name: str  # unique within the workload
    cmd: str
    thunk: object  # () -> raw output


def cli_thunk(argv):
    def thunk():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(argv)
        if rc != 0:
            raise JobFailed(f"exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()
    return thunk


def write_system(path: Path, pm: PolyMap) -> str:
    path.write_text(json.dumps({
        "N": pm.nvars - 1,
        "d": pm.degree,
        "forms": [form_str(f) for f in pm.forms],
    }))
    return str(path)


def int_digest(x: Fraction) -> str:
    """Short digest of an exact rational, without a decimal conversion
    (huge integers exceed Python's int-to-str limit)."""
    h = hashlib.sha256()
    for part in (x.numerator, x.denominator):
        h.update(part.to_bytes((part.bit_length() + 8) // 8, "big", signed=True))
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Units.  Each has `jobs`, `discard(outputs)` (validation before timing),
# `check(outputs)` -> {job name: [problems]}, `exact(outputs)` (fields for
# the digest) and `brackets(outputs)` (certified upper minus lower bound).


@dataclass
class AdelicMap:
    """x0^2 + c x1^2, x1^2: an adelic report and a Fekete search."""
    tag: str
    path: str
    seed: int
    jobs: list = field(default_factory=list)

    def __post_init__(self):
        t = self.tag
        self.jobs = [
            Job(f"{t}/adelic-report", "adelic-report", cli_thunk(
                ["adelic-report", self.path, "--n", ADELIC_N,
                 "--budget", str(ADELIC_BUDGET), "--seed", str(self.seed)])),
            Job(f"{t}/fekete", "fekete", cli_thunk(
                ["fekete", self.path, "--n", str(FEKETE_N),
                 "--budget", str(FEKETE_BUDGET), "--seed", str(self.seed)])),
        ]

    def discard(self, out):
        rep = out.get(self.jobs[0].name)
        if isinstance(rep, str):
            rep = json.loads(rep)
            for e in rep["entries"]:
                if any(w is None for w in e["witnesses"].values()):
                    raise Discard(f"{self.tag}: missing witness at n={e['n']}")

    def check(self, out):
        rep_name, fek_name = self.jobs[0].name, self.jobs[1].name
        probs = {rep_name: [], fek_name: []}
        rep = json.loads(out[rep_name])
        p = probs[rep_name]
        if [e["n"] for e in rep["entries"]] != [int(n) for n in ADELIC_N.split(",")]:
            p.append("entries do not match the requested degrees")
        for e in rep["entries"]:
            for place in rep["places"]:
                w, env = e["witnesses"].get(place), e["envelopes"].get(place)
                if w is None or env is None:
                    p.append(f"n={e['n']} {place}: missing witness or envelope")
                elif w > env + WITNESS_SLACK:
                    p.append(f"n={e['n']} {place}: witness {w} above envelope {env}")
            if e["witness_sum"] is None:
                p.append(f"n={e['n']}: no witness sum")
        fek = json.loads(out[fek_name])
        q = probs[fek_name]
        if not 1 <= fek["evaluations"] <= FEKETE_BUDGET:
            q.append(f"evaluations {fek['evaluations']} outside [1, {FEKETE_BUDGET}]")
        if fek["witness_logd"] > fek["envelope_logd"] + WITNESS_SLACK:
            q.append("witness above envelope")
        if fek["c"] != FEKETE_N + 1 or len(fek["tuple"]) != fek["c"]:
            q.append("tuple size is not c(n)")
        return probs

    def exact(self, out):
        rep = json.loads(out[self.jobs[0].name])
        fek = json.loads(out[self.jobs[1].name])
        return [rep["places"], [e["c"] for e in rep["entries"]], fek["evaluations"]]

    def brackets(self, out):
        rep = json.loads(out[self.jobs[0].name])
        return [e["envelope_sum"] - e["witness_sum"] for e in rep["entries"]]


@dataclass
class DenseMap:
    """A dense map of degree d on P^N and its scaling by lam."""
    tag: str
    pm: PolyMap
    lam: Fraction
    paths: tuple
    jobs: list = field(default_factory=list)

    def __post_init__(self):
        self.jobs = [Job(f"{self.tag}/{k}", "resultant", cli_thunk(["resultant", p]))
                     for k, p in zip(("F", "lamF"), self.paths)]

    def discard(self, out):
        for job in self.jobs:
            err = out.get(job.name)
            if isinstance(err, Exception) and "not a morphism" in str(err):
                raise Discard(f"{self.tag}: Res = 0")

    def check(self, out):
        f_name, g_name = self.jobs[0].name, self.jobs[1].name
        probs = {f_name: [], g_name: []}
        res_f = Fraction(out[f_name].strip())
        res_g = Fraction(out[g_name].strip())
        if res_f == 0:
            probs[f_name].append("Res(F) = 0")
        w = self.pm.nvars * self.pm.degree ** (self.pm.nvars - 1)
        if res_g != self.lam ** w * res_f or res_g == 0:
            probs[g_name].append(f"Res(lam F) != lam^{w} Res(F)")
        return probs

    def exact(self, out):
        return [out[j.name].strip() for j in self.jobs]

    def brackets(self, out):
        return []


@dataclass
class TransfinMap:
    """x0^2 + c x1^2, x1^2 with c = ±u/p: the p-adic witness and envelope."""
    tag: str
    path: str
    p: int
    jobs: list = field(default_factory=list)

    def __post_init__(self):
        path, p = self.path, self.p

        def thunk():
            system = cli.SystemConfig.load(path).build()
            return transfin_trend(system, [TRANSFIN_N], places=[Place.prime(p)])
        self.jobs = [Job(f"{self.tag}/transfin", "transfin", thunk)]

    def discard(self, out):
        rows = out.get(self.jobs[0].name)
        if isinstance(rows, list) and any(r.get("witness_logd") is None for r in rows):
            raise Discard(f"{self.tag}: missing witness")

    def check(self, out):
        name = self.jobs[0].name
        p = []
        rows = out[name]
        if len(rows) != 1 or rows[0]["place"] != f"p={self.p}":
            p.append("expected one row at the requested place")
        for r in rows:
            if "skipped" in r or r.get("witness_logd") is None:
                p.append(f"no witness: {r.get('skipped') or r.get('witness_note')}")
            elif r["witness_logd"] > r["envelope_logd"] + WITNESS_SLACK:
                p.append("witness above envelope")
            if r["c"] != TRANSFIN_N + 1:
                p.append("c(n) mismatch")
        return {name: p}

    def exact(self, out):
        return [[r["place"], r["c"]] for r in out[self.jobs[0].name]]

    def brackets(self, out):
        return [r["envelope_logd"] - r["witness_logd"] for r in out[self.jobs[0].name]]


def multiples_thunk(a, b, x0, y0, n):
    """The steps of `greenfield multiples`, returning the result instead
    of printing it: the CLI converts the determinant with str(), which
    raises ValueError past 4300 decimal digits, and at n = 12 and 14 the
    determinant's numerator has about 7,000 and 12,800 digits."""
    def thunk():
        lattes = LattesSystem(EllipticCurve(a, b), (x0, y0))
        cn = section_dim(lattes.system, n)
        bound = 2 * n + cn
        orbit = lattes.orbit(bound)
        res = multiples_search(lattes.system, orbit, n)
        return {"c": cn, "bound": bound, "indices": res.indices,
                "determinant": res.determinant}
    return thunk


@dataclass
class LattesCurve:
    """A point (x0, y0) on y^2 = x^3 + a x + b."""
    tag: str
    a: Fraction
    b: Fraction
    x0: Fraction
    y0: Fraction
    n: int | None  # degree of the multiples search, or None for none
    jobs: list = field(default_factory=list)

    def __post_init__(self):
        t, a, b, x0, y0, n = self.tag, self.a, self.b, self.x0, self.y0, self.n
        self.jobs = [Job(f"{t}/lehmer-scan", "lehmer-scan", cli_thunk(
            ["lehmer-scan", f"--curve={a},{b}", f"--point={x0},{y0}",
             "--depths", LEHMER_DEPTHS]))]
        if n is not None:
            self.jobs.append(Job(f"{t}/multiples-{n}", "multiples",
                                 multiples_thunk(a, b, x0, y0, n)))

    def discard(self, out):
        for job in self.jobs:
            err = out.get(job.name)
            if isinstance(err, Exception) and "torsion" in str(err):
                raise Discard(f"{self.tag}: torsion base point")

    def check(self, out):
        probs = {}
        if self.n is not None:
            name = self.jobs[1].name
            r = out[name]
            p = probs[name] = []
            idx = r["indices"]
            if len(idx) != r["c"] or r["c"] != section_dim(None, self.n, 1):
                p.append("selected count is not c(n)")
            if not idx or idx[-1] > r["bound"] or idx != sorted(set(idx)) or idx[0] < 1:
                p.append("indices out of order or beyond the bound")
            if r["determinant"] == 0:
                p.append("zero determinant")
        name = self.jobs[0].name
        p = probs[name] = []
        table = json.loads(out[name])
        h0 = table["base_height"]
        depths = [int(d) for d in LEHMER_DEPTHS.split(",")]
        for row in table["rows"]:
            if row["height"] * 4 ** row["depth"] != h0:
                p.append(f"height * 4^depth != h0 at depth {row['depth']}")
        for d in depths:
            total = sum(r["degree"] * r["multiplicity"] for r in table["rows"] if r["depth"] == d)
            if total != 4**d:
                p.append(f"factor degrees at depth {d} sum to {total}, not {4**d}")
        return probs

    def exact(self, out):
        table = json.loads(out[self.jobs[0].name])
        fields = [[r["depth"], r["degree"], r["multiplicity"], r["factor"]]
                  for r in table["rows"]]
        if self.n is not None:
            mult = out[self.jobs[1].name]
            fields.append([mult["indices"], int_digest(mult["determinant"])])
        return fields

    def brackets(self, out):
        table = json.loads(out[self.jobs[0].name])
        return [2 * table["base_height_err"]]


# ---------------------------------------------------------------------------
# Generators: one endless stream of candidate units per stratum


def _signed(rng, x):
    return x if rng.random() < 0.5 else -x


def adelic_maps(rng, workdir: Path, seed: int):
    """One map per stratum c = ±u/den, den in ADELIC_DENS: 0, 1 and 2
    bad primes.  The good numerator primes u are a seeded permutation of
    ADELIC_NUMS, so every seed spends the same total work (and gets the
    same total bracket) up to the signs and the pairing."""
    for i in range(MAX_DRAWS):
        nums = rng.sample(ADELIC_NUMS, len(ADELIC_NUMS))
        units = []
        for k, (u, den) in enumerate(zip(nums, ADELIC_DENS)):
            c = _signed(rng, Fraction(u, den))
            pm = PolyMap([HomoForm(2, 2, {(2, 0): 1, (0, 2): c}), HomoForm(2, 2, {(0, 2): 1})])
            tag = f"adelic{k}-{i}"
            units.append(AdelicMap(tag, write_system(workdir / f"{tag}.json", pm), seed))
        yield units


def dense_stream(rng, workdir: Path, slot: int, d: int, N: int):
    """Every coefficient nonzero.  The coefficients of x_i^d in f_i are
    the first pivots of the Macaulay matrix, and their sizes and
    coincidences set how much fraction-free elimination does: equal
    consecutive pivots skip whole row rescalings (one seed ran 40%
    cheaper that way), and the larger the pivot of the largest block of
    rows, the faster the entries grow.  So f_i's pure power has the
    magnitude PRIMES[i], the other magnitudes are a seeded permutation of
    1..9 repeated, and |lam| = 3/2: only positions and signs change
    with the seed."""
    nvars = N + 1
    monos = monomials_of_degree(nvars, d)
    for i in range(MAX_DRAWS):
        forms = []
        for k in range(nvars):
            power = tuple(d if j == k else 0 for j in range(nvars))
            mags = [1 + m % 9 for m in range(len(monos) - 1)]
            rng.shuffle(mags)
            others = iter(mags)
            coeffs = {expo: Fraction(_signed(rng, PRIMES[k] if expo == power else next(others)))
                      for expo in monos}
            forms.append(HomoForm(nvars, d, coeffs))
        pm = PolyMap(forms)
        lam = _signed(rng, Fraction(3, 2))
        tag = f"dense{slot}-d{d}N{N}-{i}"
        paths = (write_system(workdir / f"{tag}-F.json", pm),
                 write_system(workdir / f"{tag}-lamF.json", pm.scale(lam)))
        yield [DenseMap(tag, pm, lam, paths)]


def transfin_stream(rng, workdir: Path, p: int):
    for i in range(MAX_DRAWS):
        u = rng.choice([q for q in (1,) + PRIMES if q != p])
        c = _signed(rng, Fraction(u, p))
        pm = PolyMap([HomoForm(2, 2, {(2, 0): 1, (0, 2): c}), HomoForm(2, 2, {(0, 2): 1})])
        tag = f"transfin-p{p}-{i}"
        yield [TransfinMap(tag, write_system(workdir / f"{tag}.json", pm), p)]


def _height_bits(curve: EllipticCurve, pt) -> int | None:
    try:
        q = curve.mul(40, pt)
    except ZeroDivisionError:  # doubling a point of order 2
        return None
    if q is None:
        return None
    return q[0].numerator.bit_length() + q[0].denominator.bit_length()


def lattes_curves(rng):
    """Draws of LATTES_CURVES distinct points, drawn like the group-law
    oracle of acceptance criterion 09 and kept when x(40P) lies in the
    LATTES_BITS band."""
    lo, hi = LATTES_BITS
    for i in range(MAX_DRAWS):
        curves = {}
        for _ in range(LATTES_CURVES * 5000):
            if len(curves) == LATTES_CURVES:
                break
            x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            y0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            b = y0 * y0 - x0**3 - a * x0
            if 4 * a**3 + 27 * b**2 == 0:
                continue
            bits = _height_bits(EllipticCurve(a, b), (x0, y0))
            if bits is not None and lo <= bits <= hi:
                curves[(a, b, x0, y0)] = None
        else:
            raise RuntimeError("too few curves in the height band")
        yield [LattesCurve(f"lattes{k}-{i}", *key,
                           MULTIPLES_N[k % 2] if k < MULTIPLES_CURVES else None)
               for k, key in enumerate(curves)]


def streams(workload: str, seed: int, workdir: Path):
    """One stream of candidate draws (lists of units) per stratum of the
    workload, each with its own generator seeded from (workload, seed,
    stratum)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)

    def rng(k):
        return random.Random(f"{workload}:{seed}:{k}")
    if workload == "adelic":
        return [adelic_maps(rng(0), workdir, seed)]
    if workload == "elimination":
        dense = [dense_stream(rng(k), workdir, k, d, N) for k, (d, N) in enumerate(DENSE_CASES)]
        return dense + [transfin_stream(rng(len(dense) + k), workdir, p)
                        for k, p in enumerate(TRANSFIN_PRIMES)]
    return [lattes_curves(rng(0))]


def digest(exact_fields) -> str:
    text = json.dumps(exact_fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
