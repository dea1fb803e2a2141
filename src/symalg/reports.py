"""Report functions: one per command target of the `symalg` CLI.

Each function takes a presentation (or a parsed algebra and functional)
and plain values, and returns the report as a dict of JSON values, without
the `config` that the CLI echoes.  Its "ok" says whether every requested
verification passed.  Bad input raises the library's own errors,
PresentationError, SurjectionError or SuperLieError (all InputErrors).
The functions that read a Lie model take `cache_dir`, the directory of the
model pickle cache, or None to build the model without it.  Each function
imports the engines it runs when it is called, so a CLI process compiles
only the modules of its own command.  A check lives in the library, not
here: `verify_susy` calls `susy.susy_criterion` and `verify_semidirect`
calls `semidirect.check_semidirect`, and each only builds its dict.

    >>> from symalg import preset, reports
    >>> reports.hilbert(preset(3, 1), 6)["lie_dims"]
    [0, 3, 1, 3, 2, 6]
"""

from .linalg import rank
from .presentation import (
    build_relations, dims_ym, free_gen_series, free_ideal, hilbert_series_YM,
    omega_check, presentation_sha256, rat_str, series_valid,
)
from .tensor import bracket_word_name, lie_expand, lie_sum


def _relations(p):
    """The relations r0 + r1 of p, expanded when first iterated: a model
    served from the cache never reads them."""
    r0, r1 = build_relations(p)
    yield from r0 + r1


def _lie_model(p, cutoff, cache_dir):
    from .engine import load_or_build_model

    return load_or_build_model(p.alphabet, _relations(p), cutoff, cache_dir,
                               presentation_sha256(p))


def hilbert(p, degree, check_engine=False, engine_depth=12):
    """Closed-form series to `degree`; with check_engine, the Lie engine's
    dimensions to min(degree, engine_depth) against them."""
    report = {
        "command": "hilbert",
        "presentation_sha256": presentation_sha256(p),
        "n": p.n,
        "s": p.s,
        "degree": degree,
        "ok": True,
        "series_valid": series_valid(p.n, p.s),
    }
    if degree > 0:
        if p.n == 0 or report["series_valid"]:
            ser = hilbert_series_YM(p.n, p.s, order=degree)
            report["enveloping_series"] = [str(c) for c in ser]
        if report["series_valid"]:
            report["lie_dims"] = dims_ym(p.n, p.s, max_j=degree)
        if check_engine and report["series_valid"]:
            from .engine import LieModel

            depth = min(degree, engine_depth)
            r0, r1 = build_relations(p)
            model = LieModel(p.alphabet, r0 + r1, cutoff=depth - 1)
            engine_dims = [model.dim(j) for j in range(1, depth + 1)]
            report["engine_depth"] = depth
            report["engine_dims"] = engine_dims
            report["ok"] = engine_dims == report["lie_dims"][:depth]
    return report


def basis(p, l, check_reference_basis=False, cache_dir=None):
    """The weight-graded basis of the Lie quotient to cutoff l; with
    check_reference_basis, the (3,1) reference basis and identities."""
    from .engine import basis_report

    model = _lie_model(p, l, cache_dir)
    report = {
        "command": "basis",
        "presentation_sha256": presentation_sha256(p),
        "l": l,
        "dims": {str(w): model.dim(w) for w in model.weights()},
        "total_dim": model.total_dim(),
        "components": basis_report(model),
        "ok": True,
    }
    if check_reference_basis:
        ok = p.n == 3 and p.s == 1 and p.is_orthonormal() and l <= 7
        if ok:
            from .refdata import (DEPENDENCY_IDENTITIES_31, EXPECTED_CUMULATIVE_31,
                                  reference_basis_trees)

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
                ident_ok = all(model.contains_ideal(
                    lie_sum([(1, lhs)] + [(-c, tree) for c, tree in rhs], p.alphabet))
                    for lhs, rhs in DEPENDENCY_IDENTITIES_31)
                report["dependency_identities_ok"] = ident_ok
                ok = ok and ident_ok
        report["reference_basis_ok"] = ok
        report["ok"] = report["ok"] and ok
    return report


def _verify(target, p):
    return {
        "command": "verify",
        "target": target,
        "presentation_sha256": presentation_sha256(p),
        "ok": True,
    }


def verify_omega(p):
    """The omega identity of the presentation (`omega_check`)."""
    report = _verify("omega", p)
    report["identity_holds"] = report["ok"] = omega_check(p)
    return report


def verify_resolution(p, max_weight):
    """Both length-three resolutions to max_weight; each side lists the
    failed checks by weight, or "all-green"."""
    from . import resolution
    from .assoc import AssocModel

    resolution.check_resolvable(p)
    report = _verify("resolution", p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    out = resolution.verify_resolution(model, p, max_weight)
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
    report["max_weight"] = max_weight
    report["ok"] = ok
    return report


def verify_susy(p):
    """The supersymmetry criterion (`susy.susy_criterion`): the derivations
    preserve the ideal iff the quartic form vanishes."""
    from .susy import susy_criterion

    report = _verify("susy", p)
    qzero, all_in = susy_criterion(p)
    report["quartic_zero"] = qzero
    report["derivatives_in_ideal"] = all_in
    report["criterion"] = "ideal preserved iff quartic form vanishes"
    report["ok"] = all_in == qzero
    report["verdict"] = (
        "quartic zero; ideal preserved"
        if qzero and all_in
        else "quartic nonzero; ideal not preserved"
        if not qzero and not all_in
        else "MISMATCH"
    )
    return report


def verify_semidirect(p):
    """The isomorphism with the semidirect model
    (`semidirect.check_semidirect`): the generator round trip and the
    derivation preserving the defining relation."""
    from .semidirect import check_semidirect

    report = _verify("semidirect", p)
    got = check_semidirect(p)
    report["nondegenerate"] = got is not None
    if got is None:
        report["ok"] = False
        return report
    psi, psi_inv, report["round_trip"], report["relation_preserved"] = got
    report["psi"] = {k: bracket_word_name(v) for k, v in psi.items()}
    report["psi_inv"] = {k: bracket_word_name(v) for k, v in psi_inv.items()}
    report["ok"] = report["round_trip"] and report["relation_preserved"]
    return report


def dixmier_weight(g, f):
    """The Kirillov-form weight of the functional f on the algebra g."""
    from .superlie import weight_of

    w = weight_of(g, f)
    return {
        "command": "dixmier",
        "target": "weight",
        "ok": True,
        "weight": {"weyl": w.weyl, "clifford": w.clifford},
    }


def dixmier_polarization(g, f):
    """The weight and a Vergne polarization; where none exists the report
    holds the reason as "error" and "ok" is false."""
    from .superlie import SuperLieError, vergne_polarization

    report = dixmier_weight(g, f)
    report["target"] = "polarization"
    try:
        pol = vergne_polarization(g, f)
    except SuperLieError as exc:
        report["error"] = str(exc)
        report["ok"] = False
        return report
    report["polarization"] = [
        {g.names[i]: rat_str(c) for i, c in sorted(v.items())} for v in pol
    ]
    report["dims"] = {
        "even": sum(1 for v in pol if g.parities[next(iter(v))] == 0),
        "odd": sum(1 for v in pol if g.parities[next(iter(v))] == 1),
    }
    return report


def dixmier_surject(p, r, t, l=None, cache_dir=None):
    """The Clifford-Weyl surjection onto target (r, t) at cutoff l (default
    2 d' + 1), on a Lie model at model_cutoff(d')."""
    from .surjection import build_cw_surjection, check_input, model_cutoff

    _, _, d_prime, l = check_input(p, r, t, l)
    model = _lie_model(p, model_cutoff(d_prime), cache_dir)
    res = build_cw_surjection(p, r, t, l=l, model=model)
    report = {"command": "dixmier", "target": "surject", "ok": True,
              "presentation_sha256": presentation_sha256(p)}
    report.update(res.report())
    report["ok"] = res.ok
    return report


def freegens(p, ideal, max_weight, cache_dir=None):
    """Free-generator counts of `ideal`, a row of FREE_IDEALS, to max_weight
    against the closed-form series (PresentationError outside the ideal's
    rule, before the model is built)."""
    from .freegens import SubalgebraGenerators

    series = free_gen_series(ideal, p.n, p.s, max_weight)
    model = _lie_model(p, max(max_weight - 1, 1), cache_dir)
    counts = SubalgebraGenerators(model, *free_ideal(ideal, p.n, p.s),
                                  max_weight).counts()
    expected = {w: series[w] for w in counts}
    return {
        "command": "freegens",
        "ideal": ideal,
        "presentation_sha256": presentation_sha256(p),
        "max_weight": max_weight,
        "generator_dims": {str(w): c for w, c in counts.items()},
        "series_dims": {str(w): c for w, c in expected.items()},
        "ok": counts == expected,
    }
