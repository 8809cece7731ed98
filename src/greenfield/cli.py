"""Command-line entry point: system files, subcommands, JSON/CSV reports.

All randomness is seeded, outputs are emitted with sorted keys, and
rationals are serialized as strings, so identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 precondition/domain
violations, 2 parse errors.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .basis import monomial_basis, section_dim, special_basis
from .dynsys import DynSystem, escape_rate, julia_membership
from .experiments import (EllipticCurve, LattesSystem, adelic_report,
                          lehmer_scan, multiples_search)
from .green import (dbn_witness, fekete_search, green_value, hadamard_envelope,
                    julia_radius_log)
from .heights import canonical_height, weil_height
from .homopoly import ProjPoint, form_str, parse_form, parse_map
from .macaulay import macaulay_resultant
from .pffield import (MINUS_INFINITY, PLUS_INFINITY, Place, parse_rational,
                      product_formula_sum)


def _check_tol(tol: float, where: str) -> float:
    if not (math.isfinite(tol) and tol > 0):
        raise errors.InputError(f"{where}: tol must be finite and positive, got {tol}")
    return tol


@dataclass
class SystemConfig:
    N: int
    d: int
    forms: list[str]
    hypersurface: str | None = None
    r_convention: str = "invariant"
    tol: float = 1e-9
    seed: int = 7

    @staticmethod
    def from_dict(data: dict, where: str = "<config>") -> "SystemConfig":
        try:
            N = int(data["N"])
            d = int(data["d"])
            forms = list(data["forms"])
            tol = _check_tol(float(data.get("tol", 1e-9)), where)
            seed = int(data.get("seed", 7))
        except (KeyError, TypeError, ValueError) as exc:
            raise errors.InputError(f"{where}: missing or malformed field: {exc}")
        cfg = SystemConfig(
            N, d, [str(f) for f in forms],
            data.get("hypersurface"),
            data.get("r_convention", "invariant"),
            tol, seed,
        )
        if cfg.r_convention not in ("paper", "invariant"):
            raise errors.InputError(f"{where}: bad r_convention {cfg.r_convention!r}")
        if len(cfg.forms) != N + 1:
            raise errors.InputError(
                f"{where}: expected {N + 1} forms for N={N}, got {len(cfg.forms)}"
            )
        return cfg

    @staticmethod
    def load(path: str) -> "SystemConfig":
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                try:
                    import tomli as tomllib  # noqa: F401
                except ImportError:
                    raise errors.InputError("TOML support needs Python 3.11+ or tomli")
            with open(path, "rb") as fh:
                try:
                    data = tomllib.load(fh)
                except tomllib.TOMLDecodeError as exc:
                    raise errors.InputError(f"{path}: {exc}")
        else:
            with open(path) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise errors.InputError(
                        f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
                    )
        return SystemConfig.from_dict(data, path)

    def build(self) -> DynSystem:
        pm = parse_map(self.forms)
        if pm.degree != self.d:
            raise errors.InputError(
                f"declared d={self.d} but forms have degree {pm.degree}"
            )
        if pm.N != self.N:
            raise errors.InputError(f"declared N={self.N} but got {pm.N}")
        hyp = parse_form(self.hypersurface, self.N + 1) if self.hypersurface else None
        return DynSystem(pm, hyp, self.r_convention)

    def to_dict(self):
        return {
            "N": self.N,
            "d": self.d,
            "forms": self.forms,
            "hypersurface": self.hypersurface,
            "r_convention": self.r_convention,
            "tol": self.tol,
            "seed": self.seed,
        }


def _parse_point(text: str) -> ProjPoint:
    coords = [parse_rational(t) for t in text.split(",")]
    return ProjPoint.exact(coords)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise errors.InputError(f"bad integer list {text!r}: {exc}")


def _logmag_json(mag) -> dict:
    if mag is MINUS_INFINITY:
        return {"minus_infinity": True}
    if mag is PLUS_INFINITY:
        return {"plus_infinity": True}
    return {
        "padic": {str(p): str(q) for p, q in sorted(mag.padic.items())},
        "arch": mag.arch,
        "arch_err": mag.arch_err,
        "total": mag.total(),
    }


def _height_json(h) -> dict:
    return {
        "value": h.value,
        "error": h.error,
        "local_profile": {
            repr(place): {"value": r.value, "error": r.error,
                          "exact": r.exact is not None}
            for place, r in sorted(h.local_profile.items(), key=lambda kv: kv[0])
        },
    }


def _emit(payload, out_path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str, rows: list[dict]):
    if not rows:
        return
    fields = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_resultant(args):
    system = SystemConfig.load(args.system).build()
    sys.stdout.write(str(system.resultant) + "\n")
    return 0


def _cmd_height(args):
    cfg = SystemConfig.load(args.system)
    system = cfg.build()
    tol = args.tol if args.tol is not None else cfg.tol
    point = _parse_point(args.point)
    h = canonical_height(system, point, tol)
    weil = weil_height(point)
    _emit(
        {
            "kind": "height",
            "point": [str(x) for x in point.lift],
            "canonical": _height_json(h),
            "weil": _height_json(weil),
            "tol": tol,
        },
        args.out,
    )
    return 0


def _cmd_escape(args):
    cfg = SystemConfig.load(args.system)
    system = cfg.build()
    tol = args.tol if args.tol is not None else cfg.tol
    point = _parse_point(args.point)
    place = Place.parse(args.place)
    rate = escape_rate(system, place, point, tol)
    member = julia_membership(system, place, point, tol)
    _emit(
        {
            "kind": "escape",
            "place": repr(place),
            "point": [str(x) for x in point.lift],
            "value": rate.value,
            "error": rate.error,
            "exact": rate.exact is not None,
            "membership": member.value,
        },
        args.out,
    )
    return 0


def _cmd_basis(args):
    system = SystemConfig.load(args.system).build()
    fam = special_basis(system, args.n)
    _emit(
        {
            "kind": "basis",
            "n": fam.n,
            "c": fam.cn,
            "relaxed_j": fam.relaxed_j,
            "elements": [
                {
                    "provenance": el.describe(),
                    "factors": [list(t) for t in el.factors],
                    "eta": list(el.eta),
                    "form": form_str(el.expanded),
                }
                for el in fam.elements
            ],
        },
        args.out,
    )
    return 0


def _select_basis(system, n, kind):
    if kind == "monomial":
        if system.hypersurface is not None:
            raise errors.InputError("monomial basis is for X = P^N only")
        return monomial_basis(system.N, n)
    return special_basis(system, n)


def _cmd_green(args):
    cfg = SystemConfig.load(args.system)
    system = cfg.build()
    tol = args.tol if args.tol is not None else cfg.tol
    place = Place.parse(args.place)
    basis = _select_basis(system, args.n, args.basis)
    points = [_parse_point(t) for t in args.points.split(";") if t.strip()]
    val = green_value(system, basis, points, place, args.convention, tol)
    wit = dbn_witness(system, basis, points, place, tol) if args.witness else None
    payload = {
        "kind": "green",
        "n": args.n,
        "c": len(basis.elements),
        "place": repr(place),
        "convention": args.convention or system.r_convention,
        "green": _logmag_json(val),
    }
    if wit is not None:
        payload["witness_logd"] = _logmag_json(wit)
    _emit(payload, args.out)
    return 0


def _cmd_fekete(args):
    cfg = SystemConfig.load(args.system)
    system = cfg.build()
    seed = args.seed if args.seed is not None else cfg.seed
    basis = _select_basis(system, args.n, args.basis)
    res = fekete_search(system, basis, args.n, args.budget, seed)
    arch = Place.archimedean()
    env = hadamard_envelope(system, args.n, julia_radius_log(system, arch), arch)
    _emit(
        {
            "kind": "fekete",
            "n": args.n,
            "c": len(basis.elements),
            "place": "inf",
            "seed": seed,
            "budget": args.budget,
            "evaluations": res.evaluations,
            "witness_logd": res.witness.total(),
            "envelope_logd": env / (args.n * len(basis.elements)),
            "log_det": res.log_det,
            "tuple": [[repr(z) for z in pt.lift] for pt in res.lifts],
        },
        args.out,
    )
    return 0


def _cmd_adelic(args):
    cfg = SystemConfig.load(args.system)
    system = cfg.build()
    tol = args.tol if args.tol is not None else cfg.tol
    seed = args.seed if args.seed is not None else cfg.seed
    report = adelic_report(system, _parse_int_list(args.n), args.budget, seed, tol)
    payload = report.to_dict()
    _emit(payload, args.out)
    if args.csv:
        rows = []
        for e in report.entries:
            for place in report.places:
                rows.append(
                    {
                        "n": e.n,
                        "c": e.c,
                        "place": place,
                        "envelope_logd": e.envelopes[place],
                        "witness_logd": e.witnesses[place],
                    }
                )
        _write_csv(args.csv, rows)
    return 0


def _curve_and_point(args):
    a, b = [parse_rational(t) for t in args.curve.split(",")]
    x0, y0 = [parse_rational(t) for t in args.point.split(",")]
    return LattesSystem(EllipticCurve(a, b), (x0, y0))


def _cmd_multiples(args):
    lattes = _curve_and_point(args)
    n = args.n
    g = 1
    cn = section_dim(lattes.system, n)
    bound = 2 * n**g + cn
    orbit = lattes.orbit(bound)
    res = multiples_search(lattes.system, orbit, n)
    # the determinant may exceed the interpreter's int-to-str digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        det = str(res.determinant)
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(
        {
            "schema": "greenfield-report/1",
            "kind": "multiples",
            "curve": [str(lattes.curve.a), str(lattes.curve.b)],
            "point": [str(lattes.base_point[0]), str(lattes.base_point[1])],
            "n": n,
            "c": cn,
            "bound": bound,
            "indices": res.indices,
            "determinant": det,
        },
        args.out,
    )
    return 0


def _cmd_lehmer(args):
    lattes = _curve_and_point(args)
    table = lehmer_scan(lattes, _parse_int_list(args.depths), args.tol)
    _emit(table.to_dict(), args.out)
    if args.csv:
        _write_csv(args.csv, table.to_dict()["rows"])
    return 0


def _cmd_selftest(args):
    import random

    from .homopoly import evaluate

    failures = []

    def check(name, ok):
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        sys.stdout.write(line + "\n")
        if not ok:
            failures.append(name)

    rng = random.Random(17)
    worst = 0.0
    for _ in range(200):
        num = rng.randint(1, 10**12) * rng.choice([1, -1])
        den = rng.randint(1, 10**12)
        s = product_formula_sum(Fraction(num, den))
        worst = max(worst, abs(s.total()))
    check("product formula on 200 random rationals (|sum| <= 1e-12)", worst <= 1e-12)

    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    check("Res(x^2, y^2) = 1", macaulay_resultant(pw.map) == 1)
    check("Res(2x^2, y^2) = 4",
          macaulay_resultant(parse_map(["2*x0^2", "x1^2"])) == 4)
    check("Res(x^2, y^2, z^2) = 1",
          macaulay_resultant(parse_map(["x0^2", "x1^2", "x2^2"])) == 1)

    rate = escape_rate(pw, Place.archimedean(), ProjPoint.exact([2, 1]), 1e-11)
    check("power-map escape rate at [2:1]", abs(rate.value - math.log(2)) < 1e-9)
    cheb = DynSystem(parse_map(["x0^2 - 2*x1^2", "x1^2"]))
    rate = escape_rate(cheb, Place.archimedean(), ProjPoint.exact([3, 1]), 1e-11)
    check("Chebyshev escape rate at [3:1]",
          abs(rate.value - math.log((3 + math.sqrt(5)) / 2)) < 1e-9)

    fam = special_basis(pw, 6)
    check("special basis rank at n=6 on P^1", len(fam) == 7)
    ok = True
    for el in fam.elements:
        pt = ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                              Fraction(rng.randint(1, 9), rng.randint(1, 9))])
        ok = ok and el.evaluate_at(pw, pt, {}) == evaluate(el.expanded, pt)
    check("basis elements re-expand (provenance oracle)", ok)

    h = canonical_height(pw, ProjPoint.exact([2, 1]), 1e-12)
    check("canonical height of [2:1] under z^2", abs(h.value - math.log(2)) < 1e-11)

    sys.stdout.write(("selftest: OK\n" if not failures else
                      f"selftest: {len(failures)} failure(s)\n"))
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="greenfield",
        description="Green's functions, resultants and canonical heights "
                    "for dynamical systems on projective space over Q.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, system=True):
        if system:
            p.add_argument("system", help="system file (JSON or TOML)")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("resultant", help="exact Macaulay resultant")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_resultant)

    p = sub.add_parser("height", help="canonical and Weil height of a rational point")
    add_common(p)
    p.add_argument("--point", required=True, help='lift, e.g. "2,1" or "2/3,1"')
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_height)

    p = sub.add_parser("escape", help="local escape rate and Julia membership")
    add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--place", default="inf", help='"inf" or "p=<prime>"')
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_escape)

    p = sub.add_parser("basis", help="special basis H(n) with provenance")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("green", help="Green's function value on a tuple")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", required=True, help='semicolon-separated lifts "1,1;-1,1"')
    p.add_argument("--place", default="inf")
    p.add_argument("--basis", choices=["special", "monomial"], default="special")
    p.add_argument("--convention", choices=["paper", "invariant"], default=None)
    p.add_argument("--witness", action="store_true",
                   help="also report the transfinite-diameter witness")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_green)

    p = sub.add_parser("fekete", help="archimedean Fekete search")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--basis", choices=["special", "monomial"], default="special")
    p.set_defaults(fn=_cmd_fekete)

    p = sub.add_parser("adelic-report", help="per-place envelopes and witnesses")
    add_common(p)
    p.add_argument("--n", required=True, help="comma list of degrees, e.g. 4,8,16")
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--csv", default=None, help="also write one row per (n, place)")
    p.set_defaults(fn=_cmd_adelic)

    p = sub.add_parser("multiples", help="greedy multiples search on a Lattes orbit")
    p.add_argument("--curve", required=True, help='"a,b" for y^2 = x^3 + ax + b')
    p.add_argument("--point", required=True, help='"x0,y0" on the curve')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_multiples)

    p = sub.add_parser("lehmer-scan", help="height-vs-degree scan over preimages")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--depths", default="0,1,2")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_lehmer)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.set_defaults(fn=_cmd_selftest)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "tol", None) is not None:
            _check_tol(args.tol, "--tol")
        return args.fn(args)
    except errors.InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (errors.DomainError, errors.PreconditionError, errors.NotAMorphism,
            errors.ResourceLimit, errors.DimensionMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
