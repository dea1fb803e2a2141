"""Command-line interface: deterministic JSON reports over the library.

Subcommands
-----------
hilbert    dimension series of the quotient algebras
basis      weight-graded basis of a truncation
verify     resolution / omega / susy / semidirect checks
dixmier    Kirillov-form weights, polarizations, Clifford-Weyl surjections
freegens   free-generator series of the distinguished ideals

Every run is a pure function of its configuration; reports are cached by
the configuration hash and cache hits are byte-identical to recomputation
(--no-cache recomputes and diffs).  Exit code 0 means every requested
verification passed, 1 that one failed, 2 that the input was malformed
(one `symalg: error: ...` line on stderr) and 3 that a recomputation
differed from the cached report.
"""

import argparse
import json
import sys

from . import cache as cachemod
from .assoc import AssocModel
from .engine import (
    LieModel,
    basis_report,
    k1s_generators,
    load_or_build_model,
    tym_generators,
    tym_hat_generators,
)
from .linalg import inverse, rank
from .presentation import (
    GammaTilde,
    PresentationError,
    SymPresentation,
    build_relations,
    check_nondegenerate,
    derive_gamma_tilde,
    dims_ym,
    free_gen_series_k1s,
    free_gen_series_tym,
    free_gen_series_tym_hat,
    hilbert_series_YM,
    omega_check,
    preset,
    quartic_form,
    rat_str,
    semidirect_maps,
    semidirect_relation,
    superpotential,
    susy_derivations,
)
from .resolution import check_resolvable, verify_resolution
from .superlie import (
    FinDimSuperLieAlgebra,
    SuperLieError,
    functional_from_json,
    vergne_polarization,
    weight_of,
)
from .surjection import SurjectionError, build_cw_surjection, check_input
from .tensor import Derivation, bracket_word_name, cyclic_derivative, lie_expand
from .refdata import (
    DEPENDENCY_IDENTITIES_31,
    EXPECTED_CUMULATIVE_31,
    reference_basis_trees,
)


class UsageError(Exception):
    """Malformed command-line input; main() reports it and exits with 2."""


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:
        raise UsageError(f"{path} is not JSON: {exc}")


def _load_presentation(args):
    if getattr(args, "presentation", None):
        doc = _read_json(args.presentation)
        try:
            return SymPresentation.from_json(doc)
        except PresentationError as exc:
            raise UsageError(f"{args.presentation}: {exc}")
    if getattr(args, "preset", None):
        parts = args.preset.split(",")
        if len(parts) != 2 or not all(v.strip().isdecimal() for v in parts):
            raise UsageError(
                f"--preset expects n,s with integers n, s >= 0; got {args.preset!r}"
            )
        try:
            return preset(*(int(v) for v in parts))
        except PresentationError as exc:
            raise UsageError(f"--preset {args.preset}: {exc}")
    raise UsageError("provide --preset n,s or --presentation file.json")


def _hash(p):
    import hashlib

    return hashlib.sha256(p.canonical_json().encode()).hexdigest()


def _lie_model(args, p, cutoff):
    """The presentation's LieModel; --no-cache neither reads nor writes
    the model pickle cache."""
    r0, r1 = build_relations(p)
    cdir = None if args.no_cache else cachemod.cache_dir(args.cache_dir)
    return load_or_build_model(p.alphabet, r0 + r1, cutoff, cdir, _hash(p))


def _nonnegative(flag, value):
    if value < 0:
        raise UsageError(f"{flag} must be >= 0; got {value}")
    return value


def cmd_hilbert(args):
    p = _load_presentation(args)
    degree = _nonnegative("--degree", args.degree)
    if args.engine_depth < 1:
        raise UsageError(f"--engine-depth must be >= 1; got {args.engine_depth}")
    report = {
        "command": "hilbert",
        "presentation_sha256": _hash(p),
        "n": p.n,
        "s": p.s,
        "degree": degree,
        "ok": True,
    }
    report["series_valid"] = (p.n, p.s) not in ((1, 0), (1, 1))
    if degree > 0:
        ser = hilbert_series_YM(p.n, p.s, order=degree)
        report["enveloping_series"] = [str(int(ser[d])) for d in range(degree + 1)]
        if report["series_valid"]:
            report["lie_dims"] = dims_ym(p.n, p.s, max_j=degree)
        if args.check_engine and report["series_valid"]:
            depth = min(degree, args.engine_depth)
            r0, r1 = build_relations(p)
            model = LieModel(p.alphabet, r0 + r1, cutoff=depth - 1)
            engine_dims = [model.dim(j) for j in range(1, depth + 1)]
            report["engine_depth"] = depth
            report["engine_dims"] = engine_dims
            report["ok"] = engine_dims == report["lie_dims"][:depth]
    return report


def cmd_basis(args):
    p = _load_presentation(args)
    l = _nonnegative("--l", args.l)
    model = _lie_model(args, p, l)
    report = {
        "command": "basis",
        "presentation_sha256": _hash(p),
        "l": l,
        "dims": {str(w): model.dim(w) for w in model.weights()},
        "total_dim": model.total_dim(),
        "components": basis_report(model),
        "ok": True,
    }
    if args.check_reference_basis:
        ok = p.n == 3 and p.s == 1 and p.is_orthonormal() and l <= 7
        if ok:
            vectors = []
            for tree in reference_basis_trees(l):
                poly = lie_expand(tree, p.alphabet)
                # distinct weights use disjoint coordinate blocks
                vectors.append(
                    {poly.weight() * 10**6 + k: v for k, v in model.project(poly).items()}
                )
            count = rank(vectors)
            ok = count == model.total_dim() == EXPECTED_CUMULATIVE_31[l]
            report["reference_count"] = count
            if l >= 7:
                ident_ok = True
                for lhs, rhs in DEPENDENCY_IDENTITIES_31:
                    acc = lie_expand(lhs, p.alphabet)
                    for coeff, tree in rhs:
                        acc = acc - lie_expand(tree, p.alphabet).scale(coeff)
                    if not model.contains_ideal(acc):
                        ident_ok = False
                report["dependency_identities_ok"] = ident_ok
                ok = ok and ident_ok
        report["reference_basis_ok"] = ok
        report["ok"] = report["ok"] and ok
    return report


def cmd_verify(args):
    p = _load_presentation(args)
    target = args.target
    report = {
        "command": "verify",
        "target": target,
        "presentation_sha256": _hash(p),
        "ok": True,
    }
    if target == "omega":
        report["identity_holds"] = report["ok"] = omega_check(p)
    elif target == "resolution":
        try:
            check_resolvable(p)
        except ValueError as exc:
            raise UsageError(f"verify resolution: {exc}")
        _nonnegative("--max-weight", args.max_weight)
        r0, r1 = build_relations(p)
        model = AssocModel(p.alphabet, r0 + r1, max_weight=args.max_weight)
        out = verify_resolution(model, p, args.max_weight)
        details = {}
        ok = True
        for side, reps in out.items():
            bad = {
                str(r.weight): [k for k, v in r.checks.items() if not v]
                for r in reps
                if not r.ok
            }
            details[side] = bad if bad else "all-green"
            ok = ok and not bad
        report["sides"] = details
        report["max_weight"] = args.max_weight
        report["ok"] = ok
    elif target == "susy":
        q, qzero = quartic_form(p)
        report["quartic_zero"] = qzero
        try:
            gt = derive_gamma_tilde(p)
        except PresentationError:
            gt = _companion_fallback(p)
        ders = susy_derivations(p, gt)
        W = superpotential(p)
        r0, r1 = build_relations(p)
        model = AssocModel(p.alphabet, r0 + r1, max_weight=9)
        names = [f"x{i+1}" for i in range(p.n)] + [f"z{a+1}" for a in range(p.s)]
        all_in = True
        for d in ders:
            dW = d(W)
            for name in names:
                cd = cyclic_derivative(dW, name)
                if not model.contains(cd):
                    all_in = False
        report["derivatives_in_ideal"] = all_in
        report["criterion"] = (
            "ideal preserved iff quartic form vanishes"
        )
        report["ok"] = all_in == qzero
        report["verdict"] = (
            "quartic zero; ideal preserved"
            if qzero and all_in
            else "quartic nonzero; ideal not preserved"
            if not qzero and not all_in
            else "MISMATCH"
        )
    else:  # semidirect
        ok, witness = check_nondegenerate(p)
        report["nondegenerate"] = ok
        if ok:
            psi, psi_inv, d_action = semidirect_maps(p)
            report["psi"] = {k: bracket_word_name(v) for k, v in psi.items()}
            report["psi_inv"] = {k: bracket_word_name(v) for k, v in psi_inv.items()}
            # round trip on generators
            round_ok = all(
                psi_inv[psi[name]] == name
                for name in psi
                if isinstance(psi[name], str) and isinstance(psi_inv[psi[name]], str)
            )
            # d maps the defining relation into the relation ideal
            U, rho = semidirect_relation(p.n, p.s)
            D = Derivation(U, d_action, 0)
            dmodel = LieModel(U, [rho], cutoff=9)
            report["relation_preserved"] = dmodel.contains_ideal(D(rho))
            report["round_trip"] = round_ok
            report["ok"] = round_ok and report["relation_preserved"]
        else:
            report["ok"] = False
    return report


def _companion_fallback(p):
    """Blockwise inverse companion tensor for susy probing when the
    equivariance system is inconsistent."""
    mats = []
    for i in range(p.n):
        inv = inverse(p.gamma[i])
        mats.append(inv if inv is not None else [[0] * p.s for _ in range(p.s)])
    return GammaTilde(p.n, p.s, mats)


def cmd_dixmier(args):
    target = args.target
    report = {"command": "dixmier", "target": target, "ok": True}
    if target in ("weight", "polarization"):
        for opt in ("algebra", "functional"):
            if getattr(args, opt) is None:
                raise UsageError(f"dixmier {target} requires --{opt} file.json")
        try:
            g = FinDimSuperLieAlgebra.from_json(_read_json(args.algebra))
        except SuperLieError as exc:
            raise UsageError(f"{args.algebra}: {exc}")
        try:
            f = functional_from_json(g, _read_json(args.functional))
        except SuperLieError as exc:
            raise UsageError(f"{args.functional}: {exc}")
        w = weight_of(g, f)
        report["weight"] = {"weyl": w.weyl, "clifford": w.clifford}
        if target == "polarization":
            try:
                pol = vergne_polarization(g, f)
                report["polarization"] = [
                    {g.names[i]: rat_str(c) for i, c in sorted(v.items())}
                    for v in pol
                ]
                report["dims"] = {
                    "even": sum(
                        1 for v in pol if g.parities[next(iter(v))] == 0
                    ),
                    "odd": sum(1 for v in pol if g.parities[next(iter(v))] == 1),
                }
            except SuperLieError as exc:
                report["error"] = str(exc)
                report["ok"] = False
    else:  # surject
        p = _load_presentation(args)
        try:
            l = check_input(p, args.r, args.t, args.l)[3]
        except SurjectionError as exc:
            raise UsageError(str(exc))
        model = _lie_model(args, p, l)
        res = build_cw_surjection(p, args.r, args.t, l=l, model=model)
        report["presentation_sha256"] = _hash(p)
        report.update(res.report())
        report["ok"] = res.ok
    return report


def cmd_freegens(args):
    p = _load_presentation(args)
    max_w = args.max
    if max_w < 1:
        raise UsageError(f"--max must be >= 1; got {max_w}")
    if args.ideal == "k1s" and (p.n != 1 or p.s < 3):
        raise UsageError("--ideal k1s requires an n = 1 presentation with s >= 3")
    if args.ideal != "k1s" and p.n < 2:
        raise UsageError(f"--ideal {args.ideal} requires a presentation with n >= 2")
    model = _lie_model(args, p, max(max_w - 1, 1))
    if args.ideal == "tym-hat":
        analysis = tym_hat_generators(model, p.n, max_weight=max_w)
        series = free_gen_series_tym_hat(p.n, p.s)
    elif args.ideal == "tym":
        analysis = tym_generators(model, max_weight=max_w)
        series = free_gen_series_tym(p.n, p.s, order=max_w)
    else:  # k1s
        analysis = k1s_generators(model, p.s, max_weight=max_w)
        series = free_gen_series_k1s(p.s)
    counts = analysis.counts()
    expected = {w: int(series(w)) for w in counts}
    report = {
        "command": "freegens",
        "ideal": args.ideal,
        "presentation_sha256": _hash(p),
        "max_weight": max_w,
        "generator_dims": {str(w): c for w, c in counts.items()},
        "series_dims": {str(w): c for w, c in expected.items()},
        "ok": counts == expected,
    }
    return report


def _render_table(doc, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(doc, dict):
        width = max((len(str(k)) for k in doc), default=0)
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{str(k).ljust(width)}  {v}")
    elif isinstance(doc, list):
        lines.append(pad + "  ".join(str(v) for v in doc))
    else:
        lines.append(pad + str(doc))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="symalg",
        description="exact computations with super Yang-Mills algebras",
    )
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--no-cache", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_presentation(sp):
        sp.add_argument("--preset", default=None, help="n,s canonical presentation")
        sp.add_argument("--presentation", default=None, help="JSON file")

    sp = sub.add_parser("hilbert")
    add_presentation(sp)
    sp.add_argument("--degree", type=int, default=20)
    sp.add_argument("--check-engine", action="store_true")
    sp.add_argument("--engine-depth", type=int, default=12)
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("basis")
    add_presentation(sp)
    sp.add_argument("--l", type=int, default=7)
    sp.add_argument("--check-reference-basis", action="store_true")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("verify")
    sp.add_argument("target", choices=("resolution", "omega", "susy", "semidirect"))
    add_presentation(sp)
    sp.add_argument("--max-weight", type=int, default=10)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("dixmier")
    sp.add_argument("target", choices=("weight", "polarization", "surject"))
    add_presentation(sp)
    sp.add_argument("--algebra", default=None)
    sp.add_argument("--functional", default=None)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--l", type=int, default=None)
    sp.set_defaults(func=cmd_dixmier)

    sp = sub.add_parser("freegens")
    add_presentation(sp)
    sp.add_argument("--ideal", choices=("tym-hat", "tym", "k1s"), default="tym-hat")
    sp.add_argument("--max", type=int, default=10)
    sp.set_defaults(func=cmd_freegens)

    args = ap.parse_args(argv)
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "format", "cache_dir", "no_cache")
    }
    key = cachemod.config_key(config)
    cdir = cachemod.cache_dir(args.cache_dir)
    cached = cachemod.lookup(key, cdir)
    if cached is not None and not args.no_cache:
        data = cached
        report = json.loads(data)
    else:
        try:
            report = args.func(args)
        except UsageError as exc:
            sys.stderr.write(f"symalg: error: {exc}\n")
            return 2
        report["config"] = config
        data = (
            json.dumps(report, sort_keys=True, indent=1, default=str) + "\n"
        ).encode()
        if cached is not None and data != cached:
            sys.stderr.write("cache mismatch: recomputation differs from cache\n")
            sys.stdout.write(data.decode())
            return 3
        cachemod.store(key, data, cdir)
    if args.format == "table":
        sys.stdout.write("\n".join(_render_table(report)) + "\n")
    else:
        sys.stdout.write(data.decode())
    return 0 if report.get("ok", False) else 1


if __name__ == "__main__":
    raise SystemExit(main())
