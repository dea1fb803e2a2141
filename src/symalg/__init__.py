"""Exact computation with super Yang-Mills algebras.

The package builds the quotient algebras attached to a presentation
(n, s, Gamma, metric) from scratch: weight-graded bases of the Lie and
associative quotients, Hilbert/dimension series, the superpotential
calculus, free resolutions of the trivial module, Chevalley-Eilenberg
homology, free-generator series of the distinguished ideals, and the
Kirillov-orbit pipeline producing Clifford-Weyl quotients of nilpotent
truncations.  All arithmetic is exact rational.
"""

from .assoc import AssocModel
from .cliffordweyl import CWAlgebra, CWElement
from .engine import (
    LieModel,
    SubalgebraGenerators,
    free_lie_dims,
    tym_hat_generators,
)
from .homology import ce_check_d_squared, ce_differential, ce_homology
from .presentation import (
    GammaTensor,
    GammaTilde,
    PresentationError,
    SymPresentation,
    build_relations,
    check_equivariance_identity,
    check_nondegenerate,
    derive_gamma_tilde,
    dims_ym,
    free_gen_series,
    free_ideal,
    hilbert_series_YM,
    preset,
    quartic_form,
    semidirect_maps,
    superpotential,
    susy_derivations,
    ym_denominator,
)
from .resolution import SidedResolution, verify_resolution
from .series import dims_from_series, enveloping_series
from .superlie import (
    FieldExtensionRequired,
    FinDimSuperLieAlgebra,
    IdealWeight,
    even_functional,
    heis,
    kirillov_weight,
    stabilizer_subspace,
    subordinate_check,
    vergne_polarization,
    weight_of,
)
from .surjection import build_cw_surjection, plan_assignment
from .tensor import (
    Alphabet,
    Derivation,
    Poly,
    cyclic_derivative,
    lie_expand,
    super_commutator,
    sym_alphabet,
)

__version__ = "0.1.0"
