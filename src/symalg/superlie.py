"""Finite-dimensional super Lie algebras by structure constants, and the
Kirillov-form computations attached to an even functional: block ranks,
the weight (Weyl index, Clifford index) of the associated primitive
quotient, polarizations along a flag of ideals, and stabilizer subspaces.
The polarization is read off one Gram matrix of the Kirillov form along
one chain of ideals, the lower central series (`default_flag`).

Conventions: a basis element carries a parity (and optionally a weight,
which then grades the brackets: [e_i, e_j] lies in weight w_i + w_j);
brackets are stored for i <= j only, the other half being determined by
super antisymmetry [x,y] = -(-1)^{|x||y|} [y,x].  An even functional kills
the odd part, so its Kirillov form splits into an antisymmetric block on
the even part and a symmetric block on the odd part.  The constructor
enforces bracket parity, so the bracket of homogeneous elements is
homogeneous, and so is every vector of the lower central series.  It
stores each structure constant under `linalg`'s scalar convention, an
int where the value is integral and a Fraction otherwise, and unit
vectors are {i: 1}, so brackets with integral constants stay ints.
"""

from fractions import Fraction

from .linalg import Echelon, addmul, echelon, extend, intvec, kernel, rank, ratio
from .presentation import InputError, rat, rat_str


class SuperLieError(InputError):
    pass


class IdealWeight:
    """Named record: the two indices are too easy to transpose as a bare
    pair, so they never travel unnamed.  Immutable, equal and hashed by
    value.  It is a plain slotted class because a dataclass would make
    every `import symalg` load `dataclasses` and with it `inspect` and
    `ast`."""

    __slots__ = ("weyl", "clifford")

    def __init__(self, weyl, clifford):
        object.__setattr__(self, "weyl", weyl)
        object.__setattr__(self, "clifford", clifford)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.weyl, self.clifford) == (other.weyl, other.clifford)

    def __hash__(self):
        return hash((self.weyl, self.clifford))

    def __repr__(self):
        return f"IdealWeight(weyl={self.weyl!r}, clifford={self.clifford!r})"


class FinDimSuperLieAlgebra:
    def __init__(self, names, parities, brackets, weights=None):
        self.names = list(names)
        self.parities = list(parities)
        self.weights = list(weights) if weights is not None else None
        self.dim = len(self.names)
        if len(self.parities) != self.dim:
            raise SuperLieError("parity list length mismatch")
        if self.weights is not None and len(self.weights) != self.dim:
            raise SuperLieError("weight list length mismatch")
        for k, (name, parity) in enumerate(zip(self.names, self.parities)):
            # a functional and `index` find an element by its name
            if name in self.names[:k]:
                raise SuperLieError(f"basis name {name!r} is listed twice")
            if parity not in (0, 1):
                raise SuperLieError(f"parity of {name!r} must be 0 or 1, got {parity!r}")
        table = {}
        for (i, j), coords in brackets.items():
            if i > j:
                raise SuperLieError("store brackets for i <= j only")
            coords = {k: ratio(*Fraction(c).as_integer_ratio())
                      for k, c in coords.items() if c}
            if not all(0 <= x < self.dim for x in (i, j, *coords)):
                raise SuperLieError(f"bracket ({i},{j}) indexes outside the basis")
            if i == j and coords and not self.parities[i]:
                raise SuperLieError(f"the even {self.names[i]!r} has a nonzero square")
            if coords:
                par = (self.parities[i] + self.parities[j]) % 2
                for k in coords:
                    if self.parities[k] != par:
                        raise SuperLieError(
                            f"bracket ({i},{j}) violates parity at {k}"
                        )
                    if (self.weights is not None
                            and self.weights[k] != self.weights[i] + self.weights[j]):
                        raise SuperLieError(
                            f"bracket ({i},{j}) violates the weights at {k}"
                        )
                table[(i, j)] = coords
        self.table = table

    # -- bracket evaluation

    def bracket(self, i, j):
        """[e_i, e_j] as {k: coeff}.  For i <= j it is the stored entry of
        `table` itself, not a copy: read it, never change it."""
        if i <= j:
            return self.table.get((i, j), {})
        sign = -1 if not (self.parities[i] and self.parities[j]) else 1
        # [ei,ej] = -(-1)^(pi pj) [ej,ei]: even*odd or even*even -> -1, odd*odd -> +1
        return {k: sign * c for k, c in self.table.get((j, i), {}).items()}

    def bracket_vec(self, u, v):
        """[u, v] for vectors {index: coeff}.  Each pair reads its stored
        entry table[(min, max)]; for i > j the sign of `bracket` goes into
        the scalar, so no signed copy of the entry is built."""
        out = {}
        table, parities = self.table, self.parities
        for i, a in u.items():
            for j, b in v.items():
                entry = table.get((i, j) if i <= j else (j, i))
                if entry:
                    ab = a * b
                    if i > j and not (parities[i] and parities[j]):
                        ab = -ab
                    addmul(out, ab, entry)
        return out

    def even_indices(self):
        return [i for i, p in enumerate(self.parities) if p == 0]

    def odd_indices(self):
        return [i for i, p in enumerate(self.parities) if p == 1]

    def index(self, name):
        return self.names.index(name)

    # -- consistency and nilpotency

    def check_jacobi(self):
        """Raise SuperLieError at the first triple, in index order, where
        the super Jacobi identity in adjoint form fails:
            [x,[y,z]] = [[x,y],z] + (-1)^(|x||y|) [y,[x,z]].
        The difference of the two sides is super-antisymmetric in x, y, z,
        so the first failing triple is sorted.  Each of its three terms is
        [x, [y, z]] up to order and sign, which vanishes unless some element
        m of the stored [y, z] has a stored bracket with x; only the triples
        {x, y, z} built that way are read."""
        partners = {}
        for i, j in self.table:
            partners.setdefault(i, set()).add(j)
            partners.setdefault(j, set()).add(i)
        triples = {tuple(sorted((i, j, x))) for (i, j), coords in self.table.items()
                   for m in coords for x in partners.get(m, ())}
        for i, j, k in sorted(triples):
            lhs = self.bracket_vec({i: 1}, self.bracket(j, k))
            rhs = self.bracket_vec(self.bracket(i, j), {k: 1})
            sign = -1 if (self.parities[i] and self.parities[j]) else 1
            addmul(rhs, sign, self.bracket_vec({j: 1}, self.bracket(i, k)))
            if lhs != rhs:
                raise SuperLieError(
                    f"Jacobi fails at ({self.names[i]},{self.names[j]},{self.names[k]})"
                )

    def validate(self):
        """Check the super Jacobi identity and nilpotency; returns a report
        dict including the class."""
        self.check_jacobi()
        series = self.lower_central_series()
        if series is None:
            raise SuperLieError("algebra is not nilpotent")
        return {"dim_even": len(self.even_indices()),
                "dim_odd": len(self.odd_indices()),
                "nilpotency_class": len(series) - 1}

    def lower_central_series(self):
        """Independent spanning sets of C^1 = g, C^2 = [g,g], ... ending with
        the first zero term; None if the series stabilizes without reaching 0.
        """
        full = [{i: 1} for i in range(self.dim)]
        series = [full]
        current = full
        while True:
            nxt = []
            # each weight spans on its own (key None if unweighted)
            seen = {}
            for u in full:
                for v in current:
                    b = self.bracket_vec(u, v)
                    if b and extend(seen.setdefault(
                            self.weights and self.weights[next(iter(b))], Echelon()), b):
                        nxt.append(b)
            series.append(nxt)
            if not nxt:
                return series
            if len(nxt) == len(current):
                return None  # C^(k+1) = C^k nonzero: not nilpotent
            current = nxt

    # -- serialization

    def to_json(self):
        basis = []
        for i in range(self.dim):
            entry = {"name": self.names[i], "parity": self.parities[i]}
            if self.weights is not None:
                entry["weight"] = self.weights[i]
            basis.append(entry)
        brackets = [
            {"i": i, "j": j, "coeffs": {str(k): rat_str(c) for k, c in coords.items()}}
            for (i, j), coords in sorted(self.table.items())
        ]
        return {"basis": basis, "brackets": brackets}

    @classmethod
    def from_json(cls, doc):
        """Inverse of to_json; malformed documents, and brackets that break
        super Jacobi, raise SuperLieError."""
        try:
            basis = doc["basis"]
            names = [_json_value(b, "name", str) for b in basis]
            parities = [_json_value(b, "parity") for b in basis]
            weighted = sum("weight" in b for b in basis)
            weights = ([_json_value(b, "weight") for b in basis]
                       if weighted == len(basis) else None)
            brackets = {}
            for entry in doc["brackets"]:
                key = (_json_value(entry, "i"), _json_value(entry, "j"))
                if key in brackets:
                    raise SuperLieError(f"bracket ({key[0]},{key[1]}) is listed twice")
                # a key is the decimal str(index) that to_json writes
                bad = [k for k in entry["coeffs"] if str(int(k)) != k]
                if bad:
                    raise ValueError(f"coefficient key must be a basis index, got {bad[0]!r}")
                brackets[key] = {int(k): rat(v) for k, v in entry["coeffs"].items()}
            algebra = cls(names, parities, brackets, weights)
            if weights is None and weighted:
                # dropping them would skip the check that they grade the brackets
                raise ValueError("weight is given for some basis entries but not all")
            algebra.check_jacobi()
            return algebra
        except SuperLieError:
            raise
        except (AttributeError, LookupError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise SuperLieError(f"malformed algebra JSON: {exc}") from exc

    @classmethod
    def from_model(cls, model):
        """Import the truncated quotient computed by a LieModel."""
        labels, parities, weights, brackets = model.export_struct()
        return cls(labels, parities, brackets, weights)


def _json_value(entry, field, kind=int):
    """entry[field], which must be a JSON integer (kind int) or string
    (kind str): no float, string or boolean is read as an integer, and no
    number or list as a string."""
    value = entry[field]
    if type(value) is not kind:
        article = "an integer" if kind is int else "a string"
        raise TypeError(f"{field} must be {article}, got {value!r}")
    return value


# -- even functionals and the Kirillov form


def even_functional(g, values):
    """values: name or index -> rational; odd entries must be absent/zero."""
    out = {}
    for key, val in values.items():
        i = g.index(key) if isinstance(key, str) else key
        if g.parities[i] == 1:
            if rat(val):
                raise SuperLieError("even functional cannot charge odd elements")
            continue
        v = rat(val)
        if v:
            out[i] = v
    return out


def functional_from_json(g, doc):
    """Even functional from {name: rational}; malformed documents raise
    SuperLieError."""
    try:
        return even_functional(g, {k: rat(v) for k, v in doc.items()})
    except SuperLieError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise SuperLieError(f"malformed functional JSON: {exc}") from exc


def apply_functional(f, vec):
    return sum((f[k] * c for k, c in vec.items() if k in f), Fraction(0))


def kirillov_weight(form, even, odd):
    """Weight of the primitive quotient from a Kirillov form
    form(a, b) = f([a, b]) over the even keys `even` and the odd keys
    `odd`: weyl = (rank of the antisymmetric even block)/2, clifford = rank
    of the symmetric odd block."""
    er = rank([[form(a, b) for b in even] for a in even])
    if er % 2:
        raise SuperLieError("even block of an antisymmetric form has odd rank")
    return IdealWeight(weyl=er // 2, clifford=rank([[form(a, b) for b in odd] for a in odd]))


def weight_of(g, f):
    """Weight of the primitive quotient attached to an even functional f
    on g: kirillov_weight of B_f over g_0 and g_1."""
    return kirillov_weight(lambda i, j: apply_functional(f, g.bracket(i, j)),
                           g.even_indices(), g.odd_indices())


def subordinate_check(g, f, subspace):
    """f([h, h]) == 0 for h spanned by the given coordinate vectors."""
    for u in subspace:
        for v in subspace:
            if apply_functional(f, g.bracket_vec(u, v)):
                return False
    return True


def stabilizer_subspace(g, ideal_vectors, f):
    """{x in g : f([x, h]) = 0} for h spanned by ideal_vectors."""
    rows = []
    for v in ideal_vectors:
        row = []
        for i in range(g.dim):
            row.append(apply_functional(f, g.bracket_vec({i: 1}, v)))
        rows.append(row)
    return kernel(rows, g.dim)


class FieldExtensionRequired(SuperLieError):
    """A maximal isotropic subspace of the required dimension does not exist
    over the rationals (it would after a quadratic extension)."""


def default_flag(g):
    """A basis of g, the chain of the lower central series: deepest
    nonzero term first, each term's spanning vectors sorted by their
    support and kept where they are independent of the chain so far.

    Every prefix of the chain spans an ideal, since [g, C^k] lies in
    C^(k+1), and each step is one-dimensional.  Every vector is
    homogeneous: C^1 = g is spanned by the unit vectors, and the
    constructor makes a bracket of homogeneous elements homogeneous.  The
    chain spans g, as C^1 = g is the last term walked.
    """
    series = g.lower_central_series()
    if series is None:
        raise SuperLieError("algebra is not nilpotent")
    chain = []
    probe = Echelon()  # the span of chain
    for term in reversed(series):
        for v in sorted(term, key=sorted):
            if extend(probe, v):
                chain.append(v)
    return chain


def vergne_polarization(g, f):
    """Sum of the radicals of the Kirillov form along `default_flag(g)`
    (Vergne, C. R. Acad. Sci. Paris 270, 1970; Dixmier, ch. 6).

    The form is computed once on the chain, as the Gram matrix
    B[v][u] = f([chain[u], chain[v]]) held as integer rows (scaling a row
    changes no kernel).  The radical of f on the ideal spanned by the
    first k chain vectors is the kernel of B's leading k x k block.  An
    even functional pairs even with even and odd with odd, so B is
    block-diagonal by parity; its reduced echelon rows, and so the kernel
    vectors, are each of one parity, as are the radical vectors built
    from them.

    The result is checked to be an isotropic subalgebra whose even part has
    the (field-independent) maximal dimension dim g_0 - weyl.  The odd part
    always contains the odd radical; when it stays below the maximal
    isotropic dimension of the symmetric block over a closed field,
    FieldExtensionRequired is raised -- the kernel-sum recipe cannot see
    isotropic vectors that only exist after extending scalars (and over
    the rationals the block may even be anisotropic).
    """
    chain = default_flag(g)
    gram = [intvec({u: apply_functional(f, g.bracket_vec(x, y))
                    for u, x in enumerate(chain)})[0] for y in chain]
    span = Echelon()
    basis = []
    for k in range(1, len(chain) + 1):
        block = [{u: c for u, c in row.items() if u < k} for row in gram[:k]]
        for coeffs in kernel(block, k):
            vec = {}
            for j, c in coeffs.items():
                addmul(vec, c, chain[j])
            if extend(span, vec):
                basis.append(vec)
    # the chain is a homogeneous basis of g, so B's blocks over the even
    # and the odd chain vectors have the ranks of B_f on g_0 and g_1
    parity = [g.parities[next(iter(v))] for v in chain]
    w = kirillov_weight(lambda a, b: gram[a].get(b, 0),
                        [u for u, q in enumerate(parity) if not q],
                        [u for u, q in enumerate(parity) if q])
    m0 = len(g.even_indices())
    m1 = len(g.odd_indices())
    target_even = m0 - w.weyl
    # closed-field bound: radical + a maximal isotropic of the rank-r part
    bound_odd = m1 - w.clifford + w.clifford // 2
    # the radical vectors are homogeneous and the basis is independent,
    # so the dimensions of the two parts are counts
    got_odd = sum(g.parities[next(iter(v))] for v in basis)
    got_even = len(basis) - got_odd
    if not subordinate_check(g, f, basis):
        raise SuperLieError("polarization is not subordinate")
    if not _is_subalgebra(g, basis):
        raise SuperLieError("polarization is not a subalgebra")
    if got_even != target_even:
        raise FieldExtensionRequired(
            f"even isotropic dimension {got_even} misses the target {target_even}"
        )
    if got_odd < bound_odd:
        raise FieldExtensionRequired(
            f"odd isotropic dimension {got_odd} below the closed-field "
            f"bound {bound_odd}"
        )
    return basis


def _is_subalgebra(g, basis):
    span = echelon(basis)
    return not any(extend(span, g.bracket_vec(u, v)) for u in basis for v in basis)


# -- Heisenberg super Lie algebras


def heis(r, t):
    """Central z, r hyperbolic even pairs, t odd directions pairing into z:
    [qi,pj] = delta_ij z, [ai,bj] = delta_ij z, [c,c] = z for odd t.
    Weights: q 2, p 4, z 6; a, b, c 3."""
    if r < 0 or t < 0:
        raise SuperLieError("need r, t >= 0")
    h = t // 2
    rows = ([(f"q{i}", 0, 2) for i in range(1, r + 1)]
            + [(f"p{i}", 0, 4) for i in range(1, r + 1)] + [("z", 0, 6)]
            + [(f"a{i}", 1, 3) for i in range(1, h + 1)]
            + [(f"b{i}", 1, 3) for i in range(1, h + 1)] + [("c", 1, 3)] * (t % 2))
    names, parities, weights = zip(*rows)
    z = 2 * r
    # q_i and p_i sit r apart, a_i and b_i sit h apart, and c pairs with itself
    pairs = ([(i, i + r) for i in range(r)] + [(k, k + h) for k in range(z + 1, z + 1 + h)]
             + [(z + 1 + 2 * h,) * 2] * (t % 2))
    return FinDimSuperLieAlgebra(names, parities, {ij: {z: 1} for ij in pairs}, weights)
