"""Command-line front end.

All structured output is canonical JSON on stdout (or --out <path>); --pretty
renders the same data as an aligned text table.  Exit codes: 0 success,
1 verification failure (the report still prints, with a reproducer), 2 for
usage, I/O or validation problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import homology, io, koszul, series, verify
from .errors import GorlabError
from .modules import matlis_dual, radical_submodule, random_module
from .resolution import DEFAULT_BUDGET, Nonzeros, resolve
from .ring import FORM_CHOICES, make_ring, named_form, validate_general_algebra


def _parse_range(text: str) -> tuple:
    parts = text.split("..")
    try:
        a, b = map(int, parts) if len(parts) > 1 else (0, int(text))
    except ValueError:
        raise GorlabError(f"bad range {text!r}; expected a..b")
    if a < 0 or b < a:
        raise GorlabError(f"bad range {text!r}; need 0 <= a <= b")
    return a, b


def _emit(obj: dict, args) -> None:
    if getattr(args, "out", None):
        io.store_json(obj, args.out)
    elif getattr(args, "pretty", False):
        _pretty(obj)
    else:
        io.write_json(obj, sys.stdout)


def _pretty(obj, indent: str = "") -> None:
    if isinstance(obj, dict) and isinstance(obj.get("entries"), list):
        rows = obj["entries"]
        keys = sorted({k for r in rows for k in r}, key=lambda k: (k != "i", k))
        print(indent + "  ".join(f"{k:>14}" for k in keys))
        for r in rows:
            print(indent + "  ".join(f"{str(r.get(k, '')):>14}" for k in keys))
        for k, v in obj.items():
            if k != "entries":
                print(f"{indent}{k}: {v}")
        return
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = _plain(obj[k])
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}{k}:")
                _pretty(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
        return
    if isinstance(obj, list):
        for v in map(_plain, obj):
            if isinstance(v, (dict, list)):
                _pretty(v, indent + "  ")
            else:
                print(f"{indent}- {v}")
        return
    print(f"{indent}{obj}")


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list, Nonzeros)) for x in v)
    return False


def _plain(v):
    """A differential's nonzeros print as its entry array's nested list."""
    return v.dense().tolist() if isinstance(v, Nonzeros) else v


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ring_new(args) -> int:
    ring = make_ring(args.p, args.e, named_form(args.form, args.e, args.p, args.seed))
    _emit(io.ring_to_dict(ring), args)
    return 0


def _cmd_ring_check(args) -> int:
    data = io.load_json(args.file)
    if isinstance(data, dict) and "table" in data:
        report = validate_general_algebra(data.get("p", 0), data["table"])
        out = {
            "accepted": report.accepted,
            "commutative": report.commutative,
            "associative": report.associative,
            "unital": report.unital,
            "cube_zero": report.cube_zero,
            "socle_rank": report.socle_rank,
            "graded": report.graded,
            "reason": report.reason,
        }
        if report.form is not None:
            out["form"] = [[int(v) for v in row] for row in report.form]
        _emit(out, args)
        return 0
    ring = io.ring_from_dict(data)
    _emit({"accepted": True, "p": ring.p, "e": ring.e}, args)
    return 0


def _cmd_module_new(args) -> int:
    import json
    ring = io.load_ring(args.ring)
    try:
        pres = json.loads(args.presentation)
    except json.JSONDecodeError as ex:
        raise GorlabError(f"bad --presentation JSON: {ex.msg}")
    M = io.module_from_dict({"ring": io.ring_to_dict(ring),
                             "presentation": pres})
    _emit(io.module_to_dict(M), args)
    return 0


def _cmd_module_random(args) -> int:
    ring = io.load_ring(args.ring)
    M = random_module(ring, args.gens, args.rels, args.seed)
    _emit(io.module_to_dict(M), args)
    return 0


def _cmd_module_info(args) -> int:
    M = io.load_module(args.file)
    _emit(io.module_info(M), args)
    return 0


def _cmd_resolve(args) -> int:
    M = io.load_module(args.module)
    res = resolve(M, args.steps)
    res.extend(args.steps, DEFAULT_BUDGET)
    _emit(io.resolution_to_dict(res, args.steps), args)
    return 0


def _cmd_table(args) -> int:
    """The `tor` and `ext` verbs: homology.tor or homology.ext by name."""
    M = io.load_module(args.m)
    N = io.load_module(args.n_mod)
    a, b = _parse_range(args.range)
    table = getattr(homology, args.verb)(M, N, b)
    induced = None
    if args.induced:
        mM, iota = radical_submodule(M)
        if mM.dim:
            # Ext^i(iota, N) has the rank of Tor_i(iota, N*) by Matlis duality
            induced = homology.tor_induced(
                iota, N if args.verb == "tor" else matlis_dual(N),
                min(b, table.window))
    out = io.table_to_dict(table, induced)
    out["entries"] = [r for r in out["entries"] if a <= r["i"] <= b]
    _emit(out, args)
    return 0


def _cmd_series(args) -> int:
    kind = args.kind
    if kind in ("hilbert", "poincare"):
        if not args.module:
            raise GorlabError(f"series {kind} needs --module")
        M = io.load_module(args.module)
        if kind == "hilbert":
            S = series.hilbert_series(M)
        else:
            S = series.poincare_series(M, args.steps)
    else:
        if not (args.m and args.n_mod):
            raise GorlabError(f"series {kind} needs --m and --n-mod")
        M = io.load_module(args.m)
        N = io.load_module(args.n_mod)
        fam, mode = kind.split("-")
        mode = {"nu": "nu", "len": "length"}[mode]
        fn = series.tor_series if fam == "tor" else series.ext_series
        S = fn(M, N, args.steps, mode)
    cert = None
    if args.certify:
        cert = series.certify_rational(S, M.ring.e, args.margin)
    _emit(io.series_to_dict(S, cert), args)
    return 0


def _cmd_koszul(args) -> int:
    M = io.load_module(args.module)
    _emit(io.verdict_to_dict(koszul.is_koszul(M)), args)
    return 0


def _cmd_verify(args) -> int:
    cfg = verify.TrialConfig(**{f.name: getattr(args, f.name)
                                for f in fields(verify.TrialConfig)})
    report = verify.run_check(args.check, cfg)
    _emit(report.to_dict(), args)
    if not report.passed:
        for f in report.failures:
            print(f"FAIL trial {f.get('trial')} (seed {cfg.seed}): "
                  f"{f.get('problems', f)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gorlab",
        description="Exact homological algebra over short Gorenstein rings")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--out", help="write JSON to this path instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable view of the same data")

    ring = sub.add_parser("ring", help="create or validate rings")
    rsub = ring.add_subparsers(dest="action", required=True)
    rn = rsub.add_parser("new")
    rn.add_argument("--p", type=int, default=101)
    rn.add_argument("--e", type=int, required=True)
    rn.add_argument("--form", default="identity", choices=FORM_CHOICES)
    rn.add_argument("--seed", type=int, default=0)
    add_common(rn)
    rn.set_defaults(fn=_cmd_ring_new)
    rc = rsub.add_parser("check")
    rc.add_argument("file")
    add_common(rc)
    rc.set_defaults(fn=_cmd_ring_check)

    mod = sub.add_parser("module", help="create or inspect modules")
    msub = mod.add_subparsers(dest="action", required=True)
    mn = msub.add_parser("new")
    mn.add_argument("--ring", required=True)
    mn.add_argument("--presentation", required=True,
                    help="JSON array: per generator, per relation, e+2 coefficients")
    add_common(mn)
    mn.set_defaults(fn=_cmd_module_new)
    mr = msub.add_parser("random")
    mr.add_argument("--ring", required=True)
    mr.add_argument("--gens", type=int, default=2)
    mr.add_argument("--rels", type=int, default=2)
    mr.add_argument("--seed", type=int, default=0)
    add_common(mr)
    mr.set_defaults(fn=_cmd_module_random)
    mi = msub.add_parser("info")
    mi.add_argument("file")
    add_common(mi)
    mi.set_defaults(fn=_cmd_module_info)

    rv = sub.add_parser("resolve", help="minimal free resolution")
    rv.add_argument("module")
    rv.add_argument("--steps", type=int, default=30)
    add_common(rv)
    rv.set_defaults(fn=_cmd_resolve)

    for name in ("tor", "ext"):
        tp = sub.add_parser(name, help=f"{name} table for a pair of modules")
        tp.add_argument("--m", required=True)
        tp.add_argument("--n-mod", required=True)
        tp.add_argument("--range", default="0..10")
        tp.add_argument("--induced", action="store_true",
                        help="include ranks of the maps induced by mM -> M")
        add_common(tp)
        tp.set_defaults(fn=_cmd_table)

    sp = sub.add_parser("series", help="generating series, optionally certified")
    sp.add_argument("kind", choices=("poincare", "hilbert", "tor-nu",
                                     "tor-len", "ext-nu", "ext-len"))
    sp.add_argument("--module")
    sp.add_argument("--m")
    sp.add_argument("--n-mod")
    sp.add_argument("--steps", type=int, default=20)
    sp.add_argument("--certify", action="store_true")
    sp.add_argument("--margin", type=int, default=series.DEFAULT_MARGIN)
    add_common(sp)
    sp.set_defaults(fn=_cmd_series)

    kp = sub.add_parser("koszul", help="Koszulness verdict with witness")
    kp.add_argument("module")
    add_common(kp)
    kp.set_defaults(fn=_cmd_koszul)

    vp = sub.add_parser("verify", help="seeded property suites")
    vp.add_argument("check", choices=sorted(verify.CHECKS))
    for f in fields(verify.TrialConfig):
        if f.name == "form":
            vp.add_argument("--form", default=f.default, choices=FORM_CHOICES)
        else:
            vp.add_argument("--" + f.name.replace("_", "-"), type=int,
                            default=f.default)
    add_common(vp)
    vp.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except GorlabError as ex:
        print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"IO error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
