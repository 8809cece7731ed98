"""Command-line entry point: system files, subcommands, JSON/CSV reports.

All randomness is seeded, outputs are emitted with sorted keys, and
rationals are serialized as strings, so identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 precondition/domain
violations and failed internal checks, 2 parse errors.
"""

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .basis import monomial_basis, section_dim, special_basis
from .dynsys import DynSystem, escape_rate, membership_of
from .experiments import (EllipticCurve, LattesSystem, adelic_report,
                          lehmer_scan, multiples_search)
from .green import (dbn_witness, fekete_search, green_value, hadamard_envelope,
                    julia_radius_log)
from .heights import canonical_height, weil_height
from .homopoly import ProjPoint, form_str, parse_form, parse_map
from .pffield import LogMag, MINUS_INFINITY, PLUS_INFINITY, Place, parse_rational


def _check_tol(tol: float, where: str) -> float:
    if not (math.isfinite(tol) and tol > 0):
        raise errors.InputError(f"{where}: tol must be finite and positive, got {tol}")
    return tol


def _check_reached(error: float, tol: float):
    """A tol below the float path's rounding slop fails, not passes."""
    if error > tol:
        raise errors.PreconditionError(f"error reached {error:.3g} exceeds tol {tol:g}")


def _strict_int(value, name: str) -> int:
    """A config integer as given: a bool, float or string is not one."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


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
            N = _strict_int(data["N"], "N")
            d = _strict_int(data["d"], "d")
            forms = list(data["forms"])
            tol = data.get("tol", 1e-9)
            if isinstance(tol, bool) or not isinstance(tol, (int, float)):
                raise TypeError(f"tol must be a real number, got {tol!r}")
            tol = _check_tol(float(tol), where)
            seed = _strict_int(data.get("seed", 7), "seed")
        except (KeyError, TypeError) as exc:
            raise errors.InputError(f"{where}: missing or malformed field: {exc}")
        except OverflowError:
            raise errors.InputError(f"{where}: tol is an int beyond the float range")
        cfg = SystemConfig(
            N, d, [str(f) for f in forms],
            data.get("hypersurface"),
            data.get("r_convention", "invariant"),
            tol, seed,
        )
        if not isinstance(cfg.hypersurface, (str, type(None))):
            raise errors.InputError(f"{where}: hypersurface must be a form string")
        if cfg.r_convention not in ("paper", "invariant"):
            raise errors.InputError(f"{where}: bad r_convention {cfg.r_convention!r}")
        if len(cfg.forms) != N + 1:
            raise errors.InputError(
                f"{where}: expected {N + 1} forms for N={N}, got {len(cfg.forms)}"
            )
        return cfg

    @staticmethod
    def load(path: str) -> "SystemConfig":
        try:
            if path.endswith(".toml"):
                try:
                    import tomllib
                except ImportError:
                    try:
                        import tomli as tomllib  # noqa: F401
                    except ImportError:
                        raise errors.InputError("TOML support needs Python 3.11+ or tomli")
                with open(path, "rb") as fh:
                    data = tomllib.load(fh)
            else:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
        except ValueError as exc:  # bad TOML or UTF-8, or an int over the digit limit
            raise errors.InputError(f"{path}: {exc}")
        return SystemConfig.from_dict(data, path)

    def build(self) -> DynSystem:
        pm = parse_map(self.forms)
        if pm.degree != self.d:
            raise errors.InputError(
                f"declared d={self.d} but forms have degree {pm.degree}"
            )
        hyp = parse_form(self.hypersurface, self.N + 1) if self.hypersurface else None
        return DynSystem(pm, hyp)


# A value such as "-1,1" or "-2,945/8" begins with the option prefix, and
# argparse reads it as an option unless "=" attaches it to its flag.  No
# option here begins with "-" and a digit, "." or "/", so such a token
# after a long flag is that flag's value.
_DASH_VALUE = re.compile(r"-[\d./]")


def _attach_dash_values(argv) -> list[str]:
    """Rewrite "--flag -1,1" as "--flag=-1,1"."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if _DASH_VALUE.match(tok) and prev.startswith("--") and len(prev) > 2 and "=" not in prev:
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _parse_point(text: str) -> ProjPoint:
    coords = [parse_rational(t) for t in text.split(",")]
    return ProjPoint.exact(coords)


def _parse_int_list(text: str, name: str) -> list[int]:
    """A nonempty comma-separated list of integers; empty items are skipped."""
    try:
        out = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise errors.InputError(f"bad {name} list {text!r}: {exc}")
    if not out:
        raise errors.InputError(f"empty {name} list {text!r}")
    return out


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


def _local_json(mag) -> dict:
    return {"value": mag.total(), "error": mag.arch_err, "exact": mag.is_exact}


def _height_json(profile) -> dict:
    h = sum(profile.values(), LogMag.zero())
    return {
        "value": h.total(),
        "error": h.arch_err,
        "local_profile": {
            repr(place): _local_json(r)
            for place, r in sorted(profile.items(), key=lambda kv: kv[0])
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
    fields = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands


def _resolve_system(args):
    """Replace the system file by the DynSystem it declares, and fill the
    options left unset (--tol, --seed, --convention) from the file."""
    cfg = SystemConfig.load(args.system)
    args.system = cfg.build()
    for name, value in (("tol", cfg.tol), ("seed", cfg.seed), ("convention", cfg.r_convention)):
        if getattr(args, name, 0) is None:
            setattr(args, name, value)


def _cmd_resultant(args):
    sys.stdout.write(str(args.system.resultant) + "\n")
    return 0


def _cmd_height(args):
    point = _parse_point(args.point)
    canonical = _height_json(canonical_height(args.system, point, args.tol))
    _check_reached(canonical["error"], args.tol)
    _emit(
        {
            "kind": "height",
            "point": [str(x) for x in point.lift],
            "canonical": canonical,
            "weil": _height_json(weil_height(point)),
            "tol": args.tol,
        },
        args.out,
    )
    return 0


def _cmd_escape(args):
    point = _parse_point(args.point)
    place = Place.parse(args.place)
    rate = escape_rate(args.system, place, point, args.tol)
    _check_reached(rate.arch_err, args.tol)
    _emit(
        {
            "kind": "escape",
            "place": repr(place),
            "point": [str(x) for x in point.lift],
            **_local_json(rate),
            "membership": membership_of(rate, args.tol).value,
        },
        args.out,
    )
    return 0


def _cmd_basis(args):
    fam = special_basis(args.system, args.n)
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
    system, tol = args.system, args.tol
    place = Place.parse(args.place)
    basis = _select_basis(system, args.n, args.basis)
    points = [_parse_point(t) for t in args.points.split(";") if t.strip()]
    val = green_value(system, basis, points, place, args.convention, tol)
    wit = dbn_witness(system, basis, points, place, tol) if args.witness else None
    for mag in (val, wit):
        if isinstance(mag, LogMag):  # not absent, not an infinite sentinel
            _check_reached(mag.arch_err, tol)
    payload = {
        "kind": "green",
        "n": args.n,
        "c": basis.cn,
        "place": repr(place),
        "convention": args.convention,
        "green": _logmag_json(val),
    }
    if wit is not None:
        payload["witness_logd"] = _logmag_json(wit)
    _emit(payload, args.out)
    return 0


def _cmd_fekete(args):
    system = args.system
    arch = Place.archimedean()
    env = hadamard_envelope(system, args.n, julia_radius_log(system, arch), arch)
    basis = _select_basis(system, args.n, args.basis)
    res = fekete_search(system, basis, args.budget, args.seed)
    _emit(
        {
            "kind": "fekete",
            "n": args.n,
            "c": basis.cn,
            "place": "inf",
            "seed": args.seed,
            "budget": args.budget,
            "evaluations": res.evaluations,
            "witness_logd": None if res.witness is MINUS_INFINITY else res.witness.total(),
            "envelope_logd": env / (args.n * basis.cn),
            "log_det": res.log_det,
            "tuple": [[repr(z) for z in pt.lift] for pt in res.lifts],
        },
        args.out,
    )
    return 0


def _cmd_adelic(args):
    report = adelic_report(args.system, _parse_int_list(args.n, "degree"), args.budget,
                           args.seed, args.tol)
    _emit(report, args.out)
    if args.csv:
        _write_csv(args.csv, [
            {"n": e["n"], "c": e["c"], "place": place,
             "envelope_logd": e["envelopes"][place], "witness_logd": e["witnesses"][place]}
            for e in report["entries"] for place in report["places"]])
    return 0


def _rational_pair(text: str, what: str) -> list[Fraction]:
    pair = [parse_rational(t) for t in text.split(",")]
    if len(pair) != 2:
        raise errors.InputError(f"{what} needs two components, got {text!r}")
    return pair


def _curve_and_point(args):
    a, b = _rational_pair(args.curve, "--curve")
    return LattesSystem(EllipticCurve(a, b), tuple(_rational_pair(args.point, "--point")))


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
    table = lehmer_scan(lattes, _parse_int_list(args.depths, "depth"), args.tol)
    _emit(table, args.out)
    if args.csv:
        _write_csv(args.csv, table["rows"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="greenfield",
        description="Green's functions, resultants and canonical heights "
                    "for dynamical systems on projective space over Q.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
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
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "tol", None) is not None:
            _check_tol(args.tol, "--tol")
        if hasattr(args, "system"):
            _resolve_system(args)
        return args.fn(args)
    except errors.InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except errors.GreenfieldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
