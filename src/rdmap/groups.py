"""Built-in groups with word-length metrics and canonical ball enumeration.

Three families are provided, each with a unique normal form per element:

* free groups of rank ``k``: reduced words over lowercase generators
  ``a, b, c, ...`` and uppercase inverses ``A, B, C, ...``;
* free-abelian groups of rank ``d``: integer vectors with the ``l1`` word
  length;
* cyclic groups of order ``m``: residues in ``[0, m)`` with length
  ``min(r, m - r)``.

Word lengths satisfy the usual axioms: the identity has length zero, an
element and its inverse have equal length, and length is subadditive under
multiplication.

Balls are enumerated in a fixed canonical order, breadth-first by length and
lexicographically within a length (generator order ``a < A < b < B < ...``
for free groups, tuple order for vectors, residue order for cyclic groups),
so every downstream matrix and report is reproducible run to run.  Ball sizes
grow exponentially in free groups; a configurable cap turns runaway requests
into an explicit :class:`BallCapError` instead of silent truncation.

Bulk work runs on integers, not on per-pair word arithmetic: each ball is
built once per ``(group, radius)`` into a cached :class:`BallArena`, its
elements, lengths, translation table and the rows of words translated on it,
in which position ``m = len(arena)`` stands for every element outside the
ball.  :meth:`Group.length_matrix` parses each point once and computes all
pairwise lengths ``l(x^-1 y)`` in closed form into one read-only int64
matrix that callers passing the same points share.

Four caches keep what repeated calls share, each with a fixed bound, the
least recently used entry dropped first.  At most ``ARENA_CACHE_SIZE`` (8)
arenas are kept.  Each arena of ``m`` elements keeps at most
``ROW_CACHE_BYTES // (8 m)`` of the translation rows derived on it: 4 MiB of
row data per arena, 32 MiB over all arenas, plus a few hundred bytes of
Python objects per row; the rows go with their arena.  At most
``LENGTH_CACHE_SIZE`` (4) length matrices of at most
``LENGTH_CACHE_MAX_POINTS`` (1,024) points are kept, 32 MiB; a longer point
list is computed on each call and not kept.  The solver keeps
``rdmap.operators.START_CACHE`` (8) unit start vectors, one per ball size,
seed and dtype.  A ball too large for one row keeps no row.
"""

from __future__ import annotations

import functools
import numbers
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass
from math import comb, inf
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "DEFAULT_BALL_CAP",
    "BallCapError",
    "GroupMismatchError",
    "BallArena",
    "Group",
    "FreeGroup",
    "FreeAbelianGroup",
    "CyclicGroup",
]

DEFAULT_BALL_CAP = 200_000

# The cache bounds of the module docstring.  A pipeline touches a handful of
# arenas (the bracket ball, the sampling ball, the sweep's balls); the bound
# keeps a long session from holding every ball it ever built.
ARENA_CACHE_SIZE = 8
LENGTH_CACHE_SIZE = 4
LENGTH_CACHE_MAX_POINTS = 1024
ROW_CACHE_BYTES = 4 * 2**20

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# rank k reads the first 2k entries of each: the position of a letter in the
# canonical order a, A, b, B, ..., and the cancelling pairs aA, Aa, bB, ...
_LETTER_INDEX = {c: i for i, c in enumerate("".join(c + c.upper() for c in _ALPHABET))}
_CANCELLING_PAIRS = tuple(c + c.swapcase() for c in _LETTER_INDEX)


class GroupMismatchError(ValueError):
    """An element does not belong to the group it was used with."""


class BallCapError(RuntimeError):
    """A requested ball would exceed the configured element cap."""


def integer_or_none(v) -> Optional[int]:
    """``v`` as a plain int if it is an integer (numpy's too, not a bool) or an integral float."""
    if type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool)):
        return int(v)
    return int(v) if isinstance(v, float) and v.is_integer() else None


def check_integer(v, name: str, low: int = 0) -> int:
    """``v`` as an int, or a ValueError naming ``name`` unless it is an integer >= ``low``."""
    value = integer_or_none(v)
    if value is None or value < low:
        kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {kind}, got {v!r}")
    return value


def is_number(value) -> bool:
    """Any numbers.Number but a bool; complex() would also read "1.5" and True."""
    if type(value) in (int, float, complex):  # spares the slower abstract-class check
        return True
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


def check_positive_finite(value, name: str) -> None:
    """Raise a ValueError that names ``value`` unless ``0 < value < inf``."""
    if not 0 < value < inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)
    return array


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per int64 row: its value at rank 1, else its 8 d bytes.

    Only equal rows have equal keys; the bytes sort in an order of their own,
    not the coordinates', which :meth:`BallArena.locate` does not need.
    """
    if rows.shape[1] == 1:
        return rows[:, 0]
    return np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * rows.shape[1])))[:, 0]


@dataclass(frozen=True, eq=False)
class BallArena:
    """A ball and its translation table, built once per (group, radius) and shared.

    ``elements`` lists the ball in canonical order; position ``m = len(arena)``
    stands for every element outside the ball; ``lengths`` holds their word
    lengths.  Free groups carry ``moves``, one row per letter in
    :attr:`FreeGroup.letters` order and one column per position, m included:
    ``moves[a, i]`` is the position of ``letter_a * elements[i]``, m when that
    product leaves the ball, and ``moves[a, m]`` is m.  Free-abelian and
    cyclic groups carry ``coords``,
    one row of integer coordinates (or the residue) per element, and
    :meth:`locate` maps coordinate rows back to positions.  Every array is
    read-only, because the arena is shared by all callers.  It also keeps
    the rows of :meth:`Group.left_translate`, within the bound of the
    module docstring.
    """

    elements: tuple
    lengths: np.ndarray
    moves: Optional[np.ndarray] = None
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "lengths", _read_only(self.lengths))
        object.__setattr__(self, "_rows", OrderedDict())
        if self.moves is not None:
            object.__setattr__(self, "moves", _read_only(self.moves))
        if self.coords is not None:
            self._build_locator()

    def __len__(self) -> int:
        return len(self.elements)

    def _build_locator(self) -> None:
        coords = _read_only(self.coords)
        keys = _row_keys(coords)
        position = np.argsort(keys)
        keys = keys[position]
        keys.setflags(write=False)
        position.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_locator", (keys, position))

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the int64 coordinate ``rows`` in the ball, ``len(self)`` for rows outside."""
        keys, position = self._locator
        wanted = _row_keys(rows)
        index = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        return np.where(keys[index] == wanted, position[index], len(self))


class Group:
    """Common surface of the built-in groups.

    Concrete subclasses implement the element operations; this base class
    owns the capped ball enumeration shared by all of them.  Elements are
    plain hashable payloads (strings, integer tuples, ints), so they can key
    dictionaries directly.
    """

    kind: ClassVar[str]

    def identity(self):
        raise NotImplementedError

    def multiply(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def length(self, x) -> int:
        raise NotImplementedError

    def ball_size(self, n: int) -> int:
        """Number of elements of length at most ``n`` (exact, no enumeration)."""
        raise NotImplementedError

    def parse(self, obj):
        """Normalize an outside value into the canonical element payload.

        The one rule by which values become elements: every element method
        (encode, multiply, inverse, length, sort_key) applies it to each
        argument, as do ring elements, point masses, coefficient lookups,
        multipliers and the JSON codecs.  Free groups reduce words,
        free-abelian groups take d integer coordinates, cyclic groups wrap
        an integer modulo the order, an integer being any value that
        :func:`integer_or_none` reads (2.0 but not 2.5 or True); anything
        else raises GroupMismatchError.
        """
        raise NotImplementedError

    def encode(self, x):
        """JSON-friendly encoding of an element (inverse of :meth:`parse`)."""
        return self.parse(x)

    def sort_key(self, x):
        """Key realizing the canonical (length, lexicographic) element order."""
        raise NotImplementedError

    def length_matrix(self, points: list) -> np.ndarray:
        """Shared read-only int64 matrix of ``l(x_i^-1 x_j)`` over ``points``."""
        parsed = tuple(map(self.parse, points))
        if len(parsed) > LENGTH_CACHE_MAX_POINTS:
            return Group._cached_length_matrix.__wrapped__(self, parsed)
        return self._cached_length_matrix(parsed)

    @functools.lru_cache(maxsize=LENGTH_CACHE_SIZE)
    def _cached_length_matrix(self, parsed: tuple) -> np.ndarray:
        lengths = self._length_matrix(parsed)
        lengths.setflags(write=False)
        return lengths

    def _length_matrix(self, parsed: tuple) -> np.ndarray:
        raise NotImplementedError

    def left_translate(self, arena: BallArena, s) -> np.ndarray:
        """Position of ``s * y`` for each ``y`` in the arena's ball, m = len(arena) outside it.

        One shared read-only row per parsed ``s``, kept on the arena.
        """
        rows = arena._rows
        row = rows.pop(s, None)
        if row is None:
            row = self._left_translate(arena, s)
            row.setflags(write=False)
        rows[s] = row  # last is most recently used
        with suppress(KeyError):  # no lock: concurrent callers at worst derive a row twice
            while len(rows) > ROW_CACHE_BYTES // (8 * len(arena)):
                rows.popitem(last=False)
        return row

    def _left_translate(self, arena: BallArena, s) -> np.ndarray:
        raise NotImplementedError

    def _enumerate_ball(self, n: int) -> list:
        raise NotImplementedError

    def _arena_tables(self, elements: tuple) -> dict:
        """The family's word lengths and translation table for :class:`BallArena`."""
        raise NotImplementedError

    def arena(self, n: int, cap: int = DEFAULT_BALL_CAP) -> BallArena:
        """The ball of radius ``n`` as a shared, cached :class:`BallArena`.

        Raises :class:`BallCapError` when the ball would hold more than
        ``cap`` elements, on every call, cached ball or not.
        """
        n = check_integer(n, "ball radius")
        cap = check_integer(cap, "ball cap", 1)
        size = self.ball_size(n)
        if size > cap:
            raise BallCapError(
                f"{self!r}: ball of radius {n} holds {size} elements, "
                f"over the cap of {cap}"
            )
        return self._cached_arena(n)

    @functools.lru_cache(maxsize=ARENA_CACHE_SIZE)
    def _cached_arena(self, n: int) -> BallArena:
        elements = tuple(self._enumerate_ball(n))
        return BallArena(elements, **self._arena_tables(elements))

    def ball(self, n: int, cap: int = DEFAULT_BALL_CAP) -> list:
        """All elements of length <= ``n`` in canonical order.

        The order is reproducible and prefix-compatible: ``ball(n)`` is an
        ordered prefix of ``ball(n + 1)``.  Raises :class:`BallCapError` when
        the ball would hold more than ``cap`` elements.  The list is a fresh
        copy; changing it changes no later result.
        """
        return list(self.arena(n, cap).elements)


@dataclass(frozen=True)
class FreeGroup(Group):
    """Free group of rank ``k``, elements as reduced words.

    Words use lowercase letters for generators and uppercase for their
    inverses, e.g. ``"aBa"`` is a * b^-1 * a in rank 2.  Non-reduced input
    words are normalized, never rejected.
    """

    rank: int
    kind: ClassVar[str] = "free"

    def __post_init__(self):
        object.__setattr__(self, "rank", check_integer(self.rank, "free rank", 1))
        if self.rank > len(_ALPHABET):
            raise ValueError(f"free rank must be at most {len(_ALPHABET)}, got {self.rank}")

    @functools.cached_property
    def letters(self) -> str:
        """The 2k letters in canonical order: a, A, b, B, ..., joined on first read.

        The cache lives in the instance dict, not in a field, so equality,
        hash and repr still read the rank alone.
        """
        return "".join(c + c.upper() for c in _ALPHABET[: self.rank])

    @staticmethod
    def _reduce(word: str) -> str:
        out: list[str] = []
        for c in word:
            if out and out[-1] == c.swapcase():
                out.pop()
            else:
                out.append(c)
        return "".join(out)

    def identity(self) -> str:
        return ""

    def parse(self, obj) -> str:
        if not isinstance(obj, str):
            raise GroupMismatchError(f"free group element must be a word, got {obj!r}")
        word = str(obj)
        # strip leaves a character only if some character is not a letter
        if word.strip(self.letters):
            bad = next(c for c in word if c not in self.letters)
            raise GroupMismatchError(f"letter {bad!r} not valid in rank {self.rank}")
        for pair in _CANCELLING_PAIRS[: 2 * self.rank]:
            if pair in word:
                return self._reduce(word)
        return word

    def multiply(self, x: str, y: str) -> str:
        return self._reduce(self.parse(x) + self.parse(y))

    def inverse(self, x: str) -> str:
        return self.parse(x)[::-1].swapcase()

    def length(self, x: str) -> int:
        return len(self.parse(x))

    def sort_key(self, x: str):
        word = self.parse(x)
        return (len(word), tuple(map(_LETTER_INDEX.__getitem__, word)))

    def ball_size(self, n: int) -> int:
        n = check_integer(n, "radius")
        k = self.rank
        if k == 1:
            return 2 * n + 1
        # 1 + sum_{j=1..n} 2k (2k-1)^(j-1), geometric
        return 1 + 2 * k * ((2 * k - 1) ** n - 1) // (2 * k - 2)

    def _enumerate_ball(self, n: int) -> list[str]:
        letters = self.letters
        out = [""]
        level = [""]
        for _ in range(n):
            nxt = []
            for w in level:
                blocked = w[-1].swapcase() if w else None
                for c in letters:
                    if c != blocked:
                        nxt.append(w + c)
            out.extend(nxt)
            level = nxt
        return out

    def _arena_tables(self, elements: tuple) -> dict:
        m = len(elements)
        index = {w: i for i, w in enumerate(elements)}
        moves = [
            [index[w[1:]] if w[:1] == c.swapcase() else index.get(c + w, m) for w in elements]
            + [m]
            for c in self.letters
        ]
        # each radius up to the last word's, repeated by its sphere size
        sizes = [self.ball_size(k) for k in range(len(elements[-1]) + 1)]
        lengths = np.repeat(np.arange(len(sizes)), np.diff(sizes, prepend=0))
        return {"lengths": lengths, "moves": moves}

    def _left_translate(self, arena: BallArena, s: str) -> np.ndarray:
        # s * y is built letter by letter from the right of s.  s and y are
        # reduced, so the letters of s first cancel letters of y and then only
        # grow the word: no intermediate word is longer than max(|y|, |s y|).
        # An intermediate that leaves the ball therefore means s y lies
        # outside it too: a position that reaches m rightly stays at m, and
        # never hides a product that lands back inside.
        position = np.arange(len(arena))
        for c in reversed(s):
            position = arena.moves[_LETTER_INDEX[c]][position]
        return position

    def _length_matrix(self, words: tuple) -> np.ndarray:
        # |x^-1 y| = |x| + |y| - 2 lcp(x, y) on the Cayley tree, with lcp the
        # longest common prefix of the reduced words, accumulated one letter
        # position at a time (no m x m x L temporary).
        width = max(map(len, words), default=0)
        codes = np.frombuffer(
            "".join(w.ljust(width) for w in words).encode("ascii"), dtype=np.uint8
        ).reshape(len(words), width)
        sizes = np.array([len(w) for w in words], dtype=np.int64)
        m = len(words)
        out = sizes[:, None] + sizes[None, :]
        common = np.ones((m, m), dtype=bool)
        equal = np.empty((m, m), dtype=bool)
        lcp = np.zeros((m, m), dtype=np.uint8)
        for k, column in enumerate(codes.T):
            # a word that has ended shares no further letter with any word
            common[sizes == k] = False
            np.equal(column[:, None], column[None, :], out=equal)
            common &= equal
            # the bytes of a boolean array add as uint8 without a cast; the
            # count is flushed into the int64 result before it can wrap
            lcp += common.view(np.uint8)
            if k % 255 == 254 or k == width - 1:
                out -= lcp
                out -= lcp
                lcp.fill(0)
        return out


@dataclass(frozen=True)
class FreeAbelianGroup(Group):
    """Free-abelian group of rank ``d``, elements as integer d-vectors."""

    rank: int
    kind: ClassVar[str] = "free-abelian"

    def __post_init__(self):
        object.__setattr__(self, "rank", check_integer(self.rank, "free-abelian rank", 1))

    def identity(self) -> tuple:
        return (0,) * self.rank

    def parse(self, obj) -> tuple:
        if isinstance(obj, (list, tuple)) and len(obj) == self.rank:
            coords = tuple(map(integer_or_none, obj))
            if None not in coords:
                return coords
        raise GroupMismatchError(f"expected {self.rank} integer coordinates, got {obj!r}")

    def encode(self, x) -> list:
        return list(self.parse(x))

    def multiply(self, x: tuple, y: tuple) -> tuple:
        return tuple(a + b for a, b in zip(self.parse(x), self.parse(y)))

    def inverse(self, x: tuple) -> tuple:
        return tuple(-a for a in self.parse(x))

    def length(self, x: tuple) -> int:
        return sum(map(abs, self.parse(x)))

    def sort_key(self, x: tuple):
        x = self.parse(x)
        return (sum(map(abs, x)), x)

    def ball_size(self, n: int) -> int:
        n = check_integer(n, "radius")
        d = self.rank
        return sum(2**i * comb(d, i) * comb(n, i) for i in range(0, min(d, n) + 1))

    def _enumerate_ball(self, n: int) -> list[tuple]:
        def gen(d: int, budget: int):
            if d == 1:
                for v in range(-budget, budget + 1):
                    yield (v,)
                return
            for v in range(-budget, budget + 1):
                for rest in gen(d - 1, budget - abs(v)):
                    yield (v,) + rest

        return sorted(gen(self.rank, n), key=self.sort_key)

    def _arena_tables(self, elements: tuple) -> dict:
        coords = np.array(elements, dtype=np.int64).reshape(len(elements), self.rank)
        return {"lengths": np.abs(coords).sum(axis=1), "coords": coords}

    def _left_translate(self, arena: BallArena, s: tuple) -> np.ndarray:
        return arena.locate(arena.coords + np.array(s, dtype=np.int64))

    def _length_matrix(self, rows: tuple) -> np.ndarray:
        # the l1 distance of two rows is at most 2 * rank * max|coordinate|
        if max((abs(v) for row in rows for v in row), default=0) > (2**63 - 1) // (2 * self.rank):
            raise ValueError("coordinates too large for int64 length arithmetic")
        coords = np.array(rows, dtype=np.int64).reshape(len(rows), self.rank)
        out = np.zeros((len(rows), len(rows)), dtype=np.int64)
        for column in coords.T:
            out += np.abs(column[:, None] - column[None, :])
        return out


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Cyclic group of order ``m``, elements as residues in ``[0, m)``."""

    order: int
    kind: ClassVar[str] = "cyclic"

    def __post_init__(self):
        object.__setattr__(self, "order", check_integer(self.order, "cyclic order", 2))

    def identity(self) -> int:
        return 0

    def parse(self, obj) -> int:
        value = integer_or_none(obj)
        if value is None:
            raise GroupMismatchError(f"cyclic element must be an integer, got {obj!r}")
        return value % self.order

    def multiply(self, x: int, y: int) -> int:
        return (self.parse(x) + self.parse(y)) % self.order

    def inverse(self, x: int) -> int:
        return -self.parse(x) % self.order

    def length(self, x: int) -> int:
        x = self.parse(x)
        return min(x, self.order - x)

    def sort_key(self, x: int):
        x = self.parse(x)
        return (min(x, self.order - x), x)

    def ball_size(self, n: int) -> int:
        n = check_integer(n, "radius")
        return min(self.order, 2 * n + 1)

    def _enumerate_ball(self, n: int) -> list[int]:
        # canonical order in closed form: 0, then k and m - k for each length
        # k, the two coinciding at k = m / 2
        members = [0]
        for k in range(1, min(n, self.order // 2) + 1):
            members += [k] if 2 * k == self.order else [k, self.order - k]
        return members

    def _arena_tables(self, elements: tuple) -> dict:
        residues = np.array(elements, dtype=np.int64)
        return {"lengths": np.minimum(residues, self.order - residues), "coords": residues[:, None]}

    def _left_translate(self, arena: BallArena, s: int) -> np.ndarray:
        # shift by s - m in (-m, 0]: residue + s could pass 2^63 and wrap
        return arena.locate((arena.coords + (s - self.order)) % self.order)

    def _length_matrix(self, residues: tuple) -> np.ndarray:
        residues = np.array(residues, dtype=np.int64)
        gap = np.abs(residues[:, None] - residues[None, :])
        return np.minimum(gap, self.order - gap)
