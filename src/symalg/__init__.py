"""Exact computation with super Yang-Mills algebras.

The package builds the quotient algebras attached to a presentation
(n, s, Gamma, metric) from scratch: weight-graded bases of the Lie and
associative quotients, Hilbert/dimension series, the superpotential
calculus, free resolutions of the trivial module, Chevalley-Eilenberg
homology, free-generator series of the distinguished ideals, and the
Kirillov-orbit pipeline producing Clifford-Weyl quotients of nilpotent
truncations.  All arithmetic is exact rational.

`import symalg` loads no submodule.  Each name below, and each submodule
(`symalg.engine`, ...), is imported on first use (PEP 562), so a process
compiles only the modules it runs; `from symalg import X` returns the
object `symalg.<module>.X` itself.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "assoc": ("AssocModel",),
    "cliffordweyl": ("CWAlgebra", "CWElement"),
    "engine": ("LieModel", "free_lie_dims"),
    "freegens": ("SubalgebraGenerators", "tym_hat_generators"),
    "homology": ("ce_check_d_squared", "ce_differential", "ce_homology"),
    "presentation": (
        "GammaTensor", "GammaTilde", "PresentationError", "SymPresentation",
        "build_relations", "check_nondegenerate", "dims_ym", "free_gen_series",
        "free_ideal", "hilbert_series_YM", "preset", "ym_denominator",
    ),
    "resolution": ("SidedResolution", "verify_resolution"),
    "semidirect": ("semidirect_maps",),
    "series": ("dims_from_series", "enveloping_series"),
    "superlie": (
        "FieldExtensionRequired", "FinDimSuperLieAlgebra", "IdealWeight",
        "even_functional", "heis", "kirillov_weight", "stabilizer_subspace",
        "subordinate_check", "vergne_polarization", "weight_of",
    ),
    "surjection": ("build_cw_surjection", "plan_assignment"),
    "susy": ("check_equivariance_identity", "derive_gamma_tilde", "quartic_form",
             "superpotential", "susy_derivations"),
    "tensor": ("Alphabet", "Derivation", "Poly", "cyclic_derivative", "lie_expand",
               "super_commutator", "sym_alphabet"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
