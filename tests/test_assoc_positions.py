"""Position-keyed normal forms and resolution columns against the
word-keyed oracle (`assoc_oracle`), the read-only tables the `b1`
columns share, and the bound on the words the normal-form memo keeps."""

import copy
import itertools

import pytest
from assoc_oracle import WordAssocModel, WordResolution
from tensor_oracle import words_of_weight
from test_resolution import presentation31

from symalg import AssocModel, build_relations, preset, resolution
from symalg.resolution import SidedResolution, verify_resolution
from symalg.tensor import ODD, Alphabet


def agrees_with_oracle(p, max_weight):
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    oracle = WordAssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    assert model.normal == oracle.normal
    for side in ("left", "right"):
        res = SidedResolution(model, p, side)
        ores = WordResolution(oracle, p, side)
        for w in range(max_weight + 1):
            for name in ("b1_columns", "b3_columns"):
                assert getattr(res, name)(w) == getattr(ores, name)(w), (side, w, name)
            for k in range(len(res.relations)):
                assert res.b2_columns(w, k) == ores.b2_columns(w, k), (side, w, k)
            assert res.verify_weight(w).checks == ores.verify_weight(w).checks, (side, w)
    # the oracle's cache holds every candidate word and every word the
    # columns asked for, with their suffixes
    same_normal_forms(model, oracle, oracle.nf_cache)


def same_normal_forms(model, oracle, words):
    weight = model.alphabet.word_weight
    for word in list(words):
        nf = model.normal_word(word)
        normal = model.normal[weight(word)]
        assert {normal[i]: c for i, c in nf.items()} == oracle.normal_word(word), word


@pytest.mark.parametrize("p, max_weight", [
    ("p31", 12),
    ("p22", 12),
    (preset(1, 3), 12),
    (preset(4, 1), 11),
    ("minkowski32", 12),
    (presentation31([2, -3, 1]), 12),  # non-unit pivots: Fraction values
    (presentation31(["1", "1/2", "-3/2"]), 12),
], ids=["31", "22", "13", "41", "minkowski32", "G=2,-3,1", "G=1,1/2,-3/2"])
def test_positions_agree_with_words(p, max_weight, request):
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    agrees_with_oracle(p, max_weight)


def test_positions_agree_with_words_on_two_odd_generators():
    # k<z1,z2>/(z1^2 + z2^2, z1 z2 + z2 z1): z2^2 reduces to -z1^2, a
    # single entry of coefficient -1, so words ending in it scale a
    # table entry
    A = Alphabet([("z1", ODD, 3), ("z2", ODD, 3)])
    z1, z2 = A.gen("z1"), A.gen("z2")
    rels = [z1 * z1 + z2 * z2, z1 * z2 + z2 * z1]
    model = AssocModel(A, rels, max_weight=18)
    oracle = WordAssocModel(A, rels, max_weight=18)
    assert model.normal == oracle.normal
    same_normal_forms(model, oracle, (u for w in range(19) for u in words_of_weight(A, w)))


DRAWS = [(1, a, b) for a, b in itertools.product([-3, -2, -1, 1, 2, 3], repeat=2)]


@pytest.mark.parametrize("g", DRAWS, ids=lambda g: "G=%d,%d,%d" % g)
def test_positions_agree_with_words_on_draws(g):
    # the benchmark's shape: G^1 = 1, G^2 and G^3 from +-1..+-3
    agrees_with_oracle(presentation31(g), 12)


@pytest.mark.parametrize("p", ["p31", preset(1, 3), presentation31([2, -3, 1])],
                         ids=["31", "13", "G=2,-3,1"])
def test_verification_leaves_the_tables_unchanged(p, request, monkeypatch, fallbacks):
    # the b1 columns are the model's own normal forms; neither the
    # certificate nor the exact rank it falls back to may change them
    if isinstance(p, str):
        p = request.getfixturevalue(p)
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=12)
    table = copy.deepcopy(model.left)
    exact = resolution.rank  # the fixture's spy

    def always_exact(cols, bound, key=None, lead=None):
        return exact(cols)

    for certify in (resolution.certified_rank, always_exact):
        monkeypatch.setattr(resolution, "certified_rank", certify)
        for side in ("left", "right"):
            res = SidedResolution(model, p, side)
            for w in range(13):
                b1 = res.b1_columns(w)
                before = copy.deepcopy(b1)
                fallbacks.clear()
                assert res.verify_weight(w).ok, (side, w)
                assert b1 == before, (side, w)
                if certify is always_exact:
                    assert len(fallbacks) == 3, (side, w)
        assert model.left == table


@pytest.mark.parametrize("p, max_weight", [
    (preset(3, 1), 12), (preset(2, 2), 12), (preset(4, 1), 11), (preset(1, 3), 12),
], ids=["31", "22", "41", "13"])
def test_memo_keeps_only_words_a_later_query_reads(p, max_weight):
    # after a resolution run the memo holds no word heavier than max_weight
    # minus the lightest letter (it reaches that weight), and every normal
    # form the run asked for, memoized or computed afresh, is the oracle's
    r0, r1 = build_relations(p)
    model = AssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    oracle = WordAssocModel(p.alphabet, r0 + r1, max_weight=max_weight)
    asked = []
    real = model.normal_word

    def spy(word):
        asked.append(word)
        return real(word)

    model.normal_word = spy
    out = verify_resolution(model, p, max_weight)
    del model.normal_word
    assert all(rep.ok for side in out.values() for rep in side)
    weight = p.alphabet.word_weight
    bound = max_weight - min(p.alphabet.weights)
    assert max(map(weight, model._nf_cache)) == bound
    assert max(map(weight, asked)) == max_weight
    same_normal_forms(model, oracle, asked)
