"""Group models: normal forms, word lengths, canonical balls."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmap.groups import (
    BallCapError,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupMismatchError,
)
from rdmap.harness import GridSchedule
from rdmap.kernels import cn_check_matrix, decay_certificate, length_kernel, psd_check, schoenberg_kernel
from rdmap.multipliers import HeatMultiplier, scaled_multiplier
from rdmap.operators import GroupRingElement, RdParams, opnorm_bracket, sobolev_norm

F2 = FreeGroup(2)
Z1 = FreeAbelianGroup(1)
Z3 = FreeAbelianGroup(3)
C5 = CyclicGroup(5)

ALL_GROUPS = [FreeGroup(1), F2, FreeGroup(3), Z1, FreeAbelianGroup(2), C5, CyclicGroup(6)]


# ---------------------------------------------------------------------------
# independent oracles


def naive_reduce(word):
    """Repeatedly delete the first adjacent cancelling pair until none remain."""
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1].swapcase():
                word = word[:i] + word[i + 2 :]
                changed = True
                break
    return word


def brute_force_reduced_words(rank, n):
    """All reduced words of length <= n by filtering every string."""
    letters = "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz"[:rank])
    found = set()
    for length in range(n + 1):
        for tup in itertools.product(letters, repeat=length):
            w = "".join(tup)
            if naive_reduce(w) == w:
                found.add(w)
    return found


def cyclic_bfs_distance(m, x):
    """Word metric on Z/m via breadth-first search over generator steps."""
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for step in (1, m - 1):
                w = (v + step) % m
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist[x]


def scanned_cyclic_ball(g, n):
    """Every residue of length <= n, sorted by (length, residue): a full scan."""
    return sorted((x for x in range(g.order) if g.length(x) <= n), key=g.sort_key)


# ---------------------------------------------------------------------------
# worked examples


def test_identity():
    assert F2.identity() == ""
    assert Z3.identity() == (0, 0, 0)
    assert C5.identity() == 0


def test_multiply_free():
    assert F2.multiply("a", "A") == ""
    # "ab" * "Ba": the bB pair cancels, leaving "aa"
    assert F2.multiply("ab", "Ba") == naive_reduce("abBa") == "aa"


def test_multiply_abelian():
    g = FreeAbelianGroup(2)
    assert g.multiply((1, 2), (3, -1)) == (4, 1)


def test_inverse():
    assert F2.inverse("ab") == "BA"
    assert C5.inverse(2) == 3
    assert FreeAbelianGroup(2).inverse((1, -4)) == (-1, 4)


def test_word_length():
    assert F2.length("") == 0
    assert F2.length("aBa") == 3
    assert C5.length(3) == 2 == cyclic_bfs_distance(5, 3)


def test_cyclic_length_matches_bfs_everywhere():
    for m in (2, 3, 5, 6, 9):
        g = CyclicGroup(m)
        for x in range(m):
            assert g.length(x) == cyclic_bfs_distance(m, x)


def test_ball_free():
    assert F2.ball(0) == [""]
    ball2 = F2.ball(2)
    assert len(ball2) == 17
    assert set(ball2) == brute_force_reduced_words(2, 2)


def test_ball_cyclic():
    assert set(C5.ball(2)) == {0, 1, 2, 3, 4}
    assert C5.ball(2) == [0, 1, 4, 2, 3]  # by length, then residue


def test_cyclic_ball_matches_the_full_scan():
    for m in range(2, 120):
        g = CyclicGroup(m)
        for n in range(m // 2 + 3):
            assert g.ball(n) == scanned_cyclic_ball(g, n)


def test_ball_abelian():
    assert Z1.ball(2) == [(0,), (-1,), (1,), (-2,), (2,)]
    ball = FreeAbelianGroup(2).ball(2)
    assert len(ball) == 13 == FreeAbelianGroup(2).ball_size(2)


# ---------------------------------------------------------------------------
# invariants and properties


def _sample_elements(group, rng, count):
    pool = group.ball(3)
    idx = rng.integers(0, len(pool), size=count)
    return [pool[i] for i in idx]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
def test_group_axioms(group):
    rng = np.random.default_rng(7)
    e = group.identity()
    xs = _sample_elements(group, rng, 30)
    ys = _sample_elements(group, rng, 30)
    zs = _sample_elements(group, rng, 30)
    for x, y, z in zip(xs, ys, zs):
        assert group.multiply(group.multiply(x, y), z) == group.multiply(
            x, group.multiply(y, z)
        )
        assert group.multiply(x, group.inverse(x)) == e
        assert group.multiply(e, x) == x


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
def test_length_axioms(group):
    rng = np.random.default_rng(11)
    assert group.length(group.identity()) == 0
    for x, y in zip(_sample_elements(group, rng, 40), _sample_elements(group, rng, 40)):
        assert group.length(x) == group.length(group.inverse(x))
        assert group.length(group.multiply(x, y)) <= group.length(x) + group.length(y)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=repr)
def test_ball_prefix_and_reproducible(group):
    b3 = group.ball(3)
    b4 = group.ball(4)
    assert b4[: len(b3)] == b3
    assert group.ball(3) == b3  # stable across calls
    assert all(group.length(x) <= 3 for x in b3)
    assert len(b3) == group.ball_size(3)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_sphere_sizes(rank):
    g = FreeGroup(rank)
    balls = [g.ball(n) for n in range(7)]
    for n in range(1, 7):
        sphere = len(balls[n]) - len(balls[n - 1])
        assert sphere == 2 * rank * (2 * rank - 1) ** (n - 1)


def test_ball_ordering_is_length_then_lex():
    ball = F2.ball(2)
    keys = [F2.sort_key(w) for w in ball]
    assert keys == sorted(keys)
    assert ball[:5] == ["", "a", "A", "b", "B"]


def test_letters_are_joined_once_and_leave_equality_to_the_rank():
    g, fresh = FreeGroup(3), FreeGroup(3)
    assert g.letters == "aAbBcC" and g.letters is g.letters
    # a read letters string changes neither equality, hash nor repr
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh) == "FreeGroup(rank=3)"
    assert g != FreeGroup(2)


def test_ball_cap():
    with pytest.raises(BallCapError):
        F2.ball(12)  # 1,062,881 elements
    assert len(F2.ball(11, cap=400_000)) == F2.ball_size(11) == 354_293


@pytest.mark.parametrize(
    "cap,ok",
    [(True, False), (2.5, False), (53.5, False), (0, False), (-1, False),
     (53.0, True), (np.int64(53), True)],
    ids=repr,
)
def test_ball_cap_follows_the_integer_rule(cap, ok):
    # the free(2) ball of radius 3 holds 53 elements
    if ok:
        assert len(F2.arena(3, cap=cap)) == 53
    else:
        with pytest.raises(ValueError, match="ball cap"):
            F2.arena(3, cap=cap)


def test_ball_size_closed_forms():
    for n in range(7):
        assert FreeGroup(1).ball_size(n) == 2 * n + 1
        assert F2.ball_size(n) == len(brute_force_reduced_words(2, n)) if n <= 3 else True
    assert Z1.ball_size(10) == 21
    assert C5.ball_size(1) == 3
    assert C5.ball_size(7) == 5


# ---------------------------------------------------------------------------
# encoding, normalization, validation


def test_parse_normalizes_free_words():
    assert F2.parse("abB") == "a"
    assert F2.parse("aA") == ""
    assert F2.length("abBA") == 0


ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# its lower() is "k", so the per-letter loop read it as a letter from rank 11 up
KELVIN = "\u212a"
JUNK = [" ", "\u0130", "\u0131", "\u00df", "\u00e9", "1", "-", "\x00", "z", "Z", KELVIN]


class Word(str):
    pass


def reference_parse(group, obj):
    """The per-letter check and stack reduce that FreeGroup.parse replaced.

    The check also rejects KELVIN, the one character it used to let through
    (test_parse_rejects_the_kelvin_sign).
    """
    if not isinstance(obj, str):
        raise GroupMismatchError(f"free group element must be a word, got {obj!r}")
    for c in obj:
        idx = ALPHABET.find(c.lower())
        if idx < 0 or idx >= group.rank or c == KELVIN:
            raise GroupMismatchError(f"letter {c!r} not valid in rank {group.rank}")
    out = []
    for c in obj:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def reference_sort_key(group, obj):
    word = reference_parse(group, obj)
    return (len(word), tuple(group.letters.index(c) for c in word))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_and_sort_key_match_per_letter_reference(data):
    rank = data.draw(st.integers(1, 26))
    # the letters of rank + 1: below rank 26 the last two are not valid
    letters = FreeGroup(min(rank + 1, 26)).letters
    chars = data.draw(st.lists(st.sampled_from(letters) | st.sampled_from(JUNK), max_size=14))
    word = "".join(chars)
    obj = data.draw(st.sampled_from([word, Word(word)]))
    group = FreeGroup(rank)
    try:
        want = reference_parse(group, obj)
    except GroupMismatchError as error:
        for method in (group.parse, group.sort_key):
            with pytest.raises(GroupMismatchError) as raised:
                method(obj)
            assert str(raised.value) == str(error)
        return
    got = group.parse(obj)
    # a plain str, also for a subclass, as the joined stack was
    assert got == want and type(got) is str
    assert group.sort_key(obj) == reference_sort_key(group, obj)


def test_parse_rejects_the_kelvin_sign():
    # the per-letter loop compared KELVIN.lower() == "k" with the alphabet, so
    # from rank 11 up it took a letter that no ball or length matrix can hold
    with pytest.raises(GroupMismatchError, match="not valid in rank 11"):
        FreeGroup(11).parse("ab" + KELVIN)
    assert FreeGroup(11).parse("kK") == ""


def test_parse_cyclic_wraps():
    assert C5.parse(7) == 2
    assert C5.parse(-1) == 4


def test_encode_round_trip():
    assert F2.parse(F2.encode("aB")) == "aB"
    assert Z3.parse(Z3.encode((1, -2, 0))) == (1, -2, 0)
    assert C5.parse(C5.encode(3)) == 3


def test_mismatch_errors():
    with pytest.raises(GroupMismatchError):
        F2.multiply("a", "c")  # rank-2 group has no letter c
    with pytest.raises(GroupMismatchError):
        Z3.length((1, 2))
    assert C5.length(9) == C5.length(4)  # residues wrap, as parse wraps them
    with pytest.raises(GroupMismatchError):
        C5.length(2.5)
    with pytest.raises(GroupMismatchError):
        F2.length(3)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FreeGroup(0)
    with pytest.raises(ValueError):
        FreeAbelianGroup(0)
    with pytest.raises(ValueError):
        CyclicGroup(1)


# ---------------------------------------------------------------------------
# one element rule: every method takes exactly what parse takes


Z2 = FreeAbelianGroup(2)

# (group, values parse accepts, values it rejects)
ELEMENT_RULE = [
    (F2, ["", "a", "abB", "aA", "BAab", np.str_("ba")], [3, None, "c", "a b", ["a"], b"a", ("a",)]),
    (
        Z2,
        [(0, 0), (1, -2), [3, 0], (2.0, 1), [np.int64(-4), 5], (np.int32(1), -0.0)],
        [(1,), (1, 2, 3), (1.5, 0), (True, 0), ("1", 0), (None, 0), 5, "ab", None, np.array([1, 0])],
    ),
    (
        C5,
        [0, 4, 9, -1, 2.0, np.int64(7), 10**30],
        [2.5, True, "3", None, (1,), [2], 1j, np.float32(2.0)],
    ),
]

ELEMENT_METHODS = {
    "parse": lambda g, v: g.parse(v),
    "encode": lambda g, v: g.encode(v),
    "multiply-left": lambda g, v: g.multiply(v, g.ball(1)[1]),
    "multiply-right": lambda g, v: g.multiply(g.ball(1)[1], v),
    "multiply-both": lambda g, v: g.multiply(v, v),
    "inverse": lambda g, v: g.inverse(v),
    "length": lambda g, v: g.length(v),
    "sort_key": lambda g, v: g.sort_key(v),
}


def _element_cases(column):
    return [
        pytest.param(group, value, id=f"{group.kind}-{value!r}")
        for group, *values in ELEMENT_RULE
        for value in values[column]
    ]


@pytest.mark.parametrize("method", ELEMENT_METHODS)
@pytest.mark.parametrize("group,value", _element_cases(0))
def test_every_method_takes_what_parse_takes(group, value, method):
    call = ELEMENT_METHODS[method]
    parsed = group.parse(value)
    got = call(group, value)
    assert got == call(group, parsed)
    assert type(got) is type(call(group, parsed))
    # plain payloads: the JSON encoding of a numpy-typed input needs no cast
    assert json.dumps(group.encode(value)) == json.dumps(group.encode(parsed))


@pytest.mark.parametrize("method", ELEMENT_METHODS)
@pytest.mark.parametrize("group,value", _element_cases(1))
def test_every_method_rejects_what_parse_rejects(group, value, method):
    with pytest.raises(GroupMismatchError):
        ELEMENT_METHODS[method](group, value)


# ---------------------------------------------------------------------------
# one integer rule for group parameters and ball radii


@pytest.mark.parametrize(
    "make,value,name",
    [
        (FreeGroup, 2.5, "free rank"),
        (FreeGroup, True, "free rank"),
        (FreeGroup, "2", "free rank"),
        (FreeGroup, 0, "free rank"),
        (FreeGroup, 27, "free rank"),
        (FreeAbelianGroup, 2.5, "free-abelian rank"),
        (FreeAbelianGroup, False, "free-abelian rank"),
        (CyclicGroup, 1, "cyclic order"),
        (CyclicGroup, 5.5, "cyclic order"),
        (CyclicGroup, np.float32(5.0), "cyclic order"),
    ],
    ids=repr,
)
def test_group_parameters_must_be_integers(make, value, name):
    with pytest.raises(ValueError, match=name):
        make(value)


@pytest.mark.parametrize(
    "make,field,value,plain",
    [
        (FreeGroup, "rank", 2.0, 2),
        (FreeGroup, "rank", np.int64(2), 2),
        (FreeAbelianGroup, "rank", np.uint8(3), 3),
        (CyclicGroup, "order", np.int64(5), 5),
        (CyclicGroup, "order", 5.0, 5),
    ],
    ids=repr,
)
def test_group_parameters_are_stored_as_int(make, field, value, plain):
    group = make(value)
    assert type(getattr(group, field)) is int and getattr(group, field) == plain
    assert group == make(plain)
    assert group.ball(2) == make(plain).ball(2)


@pytest.mark.parametrize("radius", [2.5, True, -1, "2", None], ids=repr)
def test_ball_radii_must_be_nonnegative_integers(radius):
    for call in (F2.ball_size, F2.ball, F2.arena, Z3.ball_size, C5.ball_size):
        with pytest.raises(ValueError, match="radius"):
            call(radius)


# ---------------------------------------------------------------------------
# one positive-real rule for C, s, every rate r and every tolerance


RD = RdParams(C=1.0, s=2.0)
KERNEL = length_kernel(F2, F2.ball(1))
KESTEN = GroupRingElement(F2, {w: 1.0 for w in "aAbB"})

# each parameter that check_positive_finite reads, by its name in the error
POSITIVE_REAL_SITES = {
    "heat parameter r": lambda v: schoenberg_kernel(F2, F2.ball(1), r=v),
    "tolerance (cn_check_matrix)": lambda v: cn_check_matrix(KERNEL, tol=v),
    "tolerance (psd_check)": lambda v: psd_check(KERNEL, tol=v),
    "rate r (decay_certificate)": lambda v: decay_certificate(v, 2.0),
    "exponent s (decay_certificate)": lambda v: decay_certificate(1.0, v),
    "rate r (GridSchedule)": lambda v: GridSchedule(r_values=(v,), rd=RD),
    "constant C (RdParams)": lambda v: RdParams(C=v, s=2.0),
    "exponent s (RdParams)": lambda v: RdParams(C=1.0, s=v),
    "Sobolev exponent s": lambda v: sobolev_norm(F2, KESTEN, v),
    "tol (opnorm_bracket)": lambda v: opnorm_bracket(F2, KESTEN, RD, 1, tol=v),
    "rate r (HeatMultiplier)": lambda v: HeatMultiplier(F2, v),
    "constant C (scaled_multiplier)": lambda v: scaled_multiplier(F2, 1.0, 2.0, 3, v),
}


@pytest.mark.parametrize("site", POSITIVE_REAL_SITES)
@pytest.mark.parametrize("value", [True, np.True_, "0.5", 0.5 + 0j, 1j, None, 0.0, -1.0, np.nan, np.inf], ids=repr)
def test_positive_real_parameters_refuse_what_is_not_a_positive_real(site, value):
    # a bool ran as 1 and a numeric string was read by float() in GridSchedule;
    # "0.5" and complex values raised a bare TypeError elsewhere
    with pytest.raises(ValueError, match=site.split(" (")[0]):
        POSITIVE_REAL_SITES[site](value)


@pytest.mark.parametrize("site", POSITIVE_REAL_SITES)
@pytest.mark.parametrize("value", [0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(2), Fraction(1, 2)], ids=repr)
def test_positive_real_parameters_take_any_positive_real(site, value):
    POSITIVE_REAL_SITES[site](value)


def test_integral_radii_are_read_as_int():
    assert F2.ball_size(2.0) == F2.ball_size(np.int64(2)) == 17
    assert F2.ball(2.0) == F2.ball(2)
    assert F2.arena(np.int32(3)) is F2.arena(3)
