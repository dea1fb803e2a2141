"""Free tensor super algebra with exact rational coefficients.

Everything downstream (relations, quotient engines, resolutions, the orbit
pipeline) is phrased in terms of three pieces of data defined here:

* an alphabet of weighted, parity-graded generators,
* words = finite sequences of generators, ordered by weight then
  right-to-left lexicographically (so coset representatives chosen against
  ascending columns reproduce the classical rewriting bases, e.g.
  ``z1^a z2^b`` for the two-odd-generator quotient),
* polynomials = finite rational combinations of words.

Signs follow the Koszul rule throughout: swapping homogeneous factors of
parities p, q costs (-1)**(p*q).
"""

from fractions import Fraction

from .linalg import addmul, ratio

EVEN = 0
ODD = 1

class Generator:
    __slots__ = ("index", "name", "parity", "weight")

    def __init__(self, index, name, parity, weight):
        self.index = index
        self.name = name
        self.parity = parity
        self.weight = weight

    def __repr__(self):
        return f"Generator({self.name!r}, parity={self.parity}, weight={self.weight})"


class Alphabet:
    """Ordered list of generators; the order drives the monomial order.

    Words of equal weight are compared by reading letters right to left
    (graded colexicographic order).
    """

    def __init__(self, generators):
        self.generators = []
        seen = set()
        for i, (name, parity, weight) in enumerate(generators):
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            if parity not in (EVEN, ODD):
                raise ValueError(f"parity must be 0 or 1, got {parity!r}")
            if weight <= 0 or weight != int(weight):
                raise ValueError(f"weight must be a positive integer, got {weight!r}")
            seen.add(name)
            self.generators.append(Generator(i, name, parity, weight))
        self.parities = tuple(g.parity for g in self.generators)
        self.weights = tuple(g.weight for g in self.generators)
        self.names = tuple(g.name for g in self.generators)

    def __len__(self):
        return len(self.generators)

    def index(self, name):
        return self.names.index(name)

    def word_weight(self, word):
        w = self.weights
        return sum(w[i] for i in word)

    def word_parity(self, word):
        p = self.parities
        return sum(p[i] for i in word) & 1

    def word_name(self, word):
        return "*".join(self.names[i] for i in word) if word else "1"

    def poly(self, terms=()):
        return Poly(self, dict(terms))

    def gen(self, name):
        return Poly(self, {(self.index(name),): Fraction(1)})

    def unit(self):
        return Poly(self, {(): Fraction(1)})

    def zero(self):
        return Poly(self, {})


def sym_alphabet(n, s):
    """n even generators x1..xn of weight 2, s odd generators z1..zs of weight 3."""
    gens = [(f"x{i}", EVEN, 2) for i in range(1, n + 1)]
    gens += [(f"z{a}", ODD, 3) for a in range(1, s + 1)]
    return Alphabet(gens)


class Poly:
    """Rational combination of tensor words over a fixed alphabet.

    Zero coefficients are never stored.  Addition, scaling, concatenation
    product and the graded bracket are the only primitives; all higher
    operations reduce to these.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms):
        self.alphabet = alphabet
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- gradings

    def weight(self):
        """Common weight of all words; None for 0, error if inhomogeneous."""
        ws = {self.alphabet.word_weight(u) for u in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError(f"inhomogeneous weights {sorted(ws)}")
        return ws.pop()

    def parity(self):
        """Common parity of all words; None for 0, error if mixed."""
        ps = {self.alphabet.word_parity(u) for u in self.terms}
        if not ps:
            return None
        if len(ps) > 1:
            raise ValueError("polynomial of mixed parity")
        return ps.pop()

    def split(self, last=False):
        """The terms grouped by their first letter (the last, if `last`):
        a list of (letter, [(rest, coeff), ...]), letters in order of first
        appearance, where each term is letter * rest (rest * letter)."""
        out = {}
        for u, c in self.terms.items():
            letter, rest = (u[-1], u[:-1]) if last else (u[0], u[1:])
            out.setdefault(letter, []).append((rest, c))
        return list(out.items())

    # -- arithmetic

    def __add__(self, other):
        out = dict(self.terms)
        addmul(out, 1, other.terms)
        return Poly(self.alphabet, out)

    def __sub__(self, other):
        out = dict(self.terms)
        addmul(out, -1, other.terms)
        return Poly(self.alphabet, out)

    def __neg__(self):
        return Poly(self.alphabet, {u: -c for u, c in self.terms.items()})

    def scale(self, k):
        k = Fraction(k)
        if not k:
            return Poly(self.alphabet, {})
        return Poly(self.alphabet, {u: c * k for u, c in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product (no sign: words are plain tensors)."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = u + v
                c = out.get(w, 0) + cu * cv
                if c:
                    out[w] = c
                else:
                    out.pop(w, None)
        return Poly(self.alphabet, out)

    def __rmul__(self, k):
        return self.scale(k)

    def sorted_terms(self):
        alph = self.alphabet
        return sorted(
            self.terms.items(),
            key=lambda it: (alph.word_weight(it[0]), tuple(reversed(it[0]))),
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for u, c in self.sorted_terms():
            name = self.alphabet.word_name(u)
            if c == 1 and u:
                bits.append(name)
            elif u:
                bits.append(f"{c}*{name}")
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


def super_commutator(u, v):
    """u v - (-1)**(|u||v|) v u for parity-homogeneous u, v."""
    pu = u.parity()
    pv = v.parity()
    if pu is None or pv is None:
        return u.alphabet.zero()
    sign = -1 if (pu and pv) else 1
    return u * v - (v * u).scale(sign)


class LieElement(Poly):
    """The tensor polynomial of a sum of brackets, with the (coefficient,
    bracket tree) terms it was expanded from: a Lie element by construction.
    A tree is a generator name, a pair (left, right) meaning the graded
    bracket of the two subtrees, or a nested element.  The Lie engine
    evaluates the trees; everything else reads `terms`."""

    __slots__ = ("trees",)

    def __init__(self, alphabet, terms, trees):
        super().__init__(alphabet, terms)
        self.trees = trees


def _expand(expr, alphabet):
    """The tensor polynomial of a bracket tree."""
    if isinstance(expr, str):
        return alphabet.gen(expr)
    if isinstance(expr, LieElement):
        return expr
    if isinstance(expr, (tuple, list)) and len(expr) == 2:
        return super_commutator(_expand(expr[0], alphabet), _expand(expr[1], alphabet))
    raise ValueError(f"malformed bracket tree {expr!r}")


def lie_expand(expr, alphabet):
    """The Lie element of one bracket tree."""
    return lie_sum([(1, expr)], alphabet)


def lie_sum(terms, alphabet):
    """The Lie element sum c * tree over the (coefficient, bracket tree)
    pairs `terms`, its values under the scalar convention of `linalg.ratio`
    (int where integral).  It keeps the terms of the weights whose part is
    nonzero: a homogeneous element's trees have its weight, zero has none."""
    parts = {}
    for c, tree in terms:
        p = _expand(tree, alphabet)
        if c and p:
            out, kept = parts.setdefault(p.weight(), ({}, []))
            addmul(out, c, p.terms)
            kept.append((c, tree))
    parts = [part for part in parts.values() if part[0]]
    return LieElement(alphabet, {u: ratio(*c.as_integer_ratio())
                                 for out, _ in parts for u, c in out.items()},
                      tuple(t for _, kept in parts for t in kept))


def bracket_word_name(expr):
    if isinstance(expr, str):
        return expr
    return "[%s,%s]" % (bracket_word_name(expr[0]), bracket_word_name(expr[1]))


def cyclic_derivative(p, gen_name):
    """Signed rotation-sum derivative of a class in TV/[TV,TV].

    For a word v1..vr and a generator v, sum over positions i with vi = v of
    (-1)**((|vi|+..+|vr|) * (|v1|+..+|v_{i-1}|)) v_{i+1}..vr v1..v_{i-1}.
    """
    alph = p.alphabet
    g = alph.index(gen_name)
    par = alph.parities
    out = alph.zero()
    acc = out.terms
    for u, c in p.terms.items():
        pre = 0  # parity of v1..v_{i-1}
        tot = sum(par[i] for i in u) & 1
        for i, letter in enumerate(u):
            if letter == g:
                suf = (tot - pre) & 1  # parity of vi..vr
                sign = -1 if (suf and pre) else 1
                w = u[i + 1 :] + u[:i]
                val = acc.get(w, 0) + sign * c
                if val:
                    acc[w] = val
                else:
                    acc.pop(w, None)
            pre = (pre + par[letter]) & 1
    return out


class Derivation:
    """Homogeneous derivation of the tensor algebra, given on generators.

    Satisfies d(uv) = d(u) v + (-1)**(|d||u|) u d(v).  The images must
    shift parity by `parity` and weight by a single common amount.
    """

    __slots__ = ("alphabet", "parity", "weight_step", "images")

    def __init__(self, alphabet, images, parity):
        self.alphabet = alphabet
        self.parity = parity
        imgs = {}
        step = None
        for name, val in images.items():
            i = alphabet.index(name)
            if val.is_zero():
                imgs[i] = val
                continue
            if val.parity() != (alphabet.parities[i] + parity) % 2:
                raise ValueError(f"image of {name} has wrong parity")
            st = val.weight() - alphabet.weights[i]
            if step is None:
                step = st
            elif st != step:
                raise ValueError("images not of a single homogeneous degree")
            imgs[i] = val
        for g in alphabet.generators:
            imgs.setdefault(g.index, alphabet.zero())
        self.images = imgs
        self.weight_step = step

    def __call__(self, p):
        par = self.alphabet.parities
        out = {}
        for u, c in p.terms.items():
            left_par = 0
            for i, letter in enumerate(u):
                head, tail = u[:i], u[i + 1:]
                a = -c if self.parity and left_par else c
                for v, d in self.images[letter].terms.items():
                    w = head + v + tail
                    x = out.get(w, 0) + a * d
                    if x:
                        out[w] = x
                    else:
                        out.pop(w, None)
                left_par = (left_par + par[letter]) & 1
        return Poly(self.alphabet, out)

