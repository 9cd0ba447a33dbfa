"""Finite groups as dense Cayley tables, with constructions and subgroup machinery.

A group of order n is an n x n table of element indices plus the index of
the identity.  The table is held once, as the read-only int32 array that
validation returns, and `FiniteGroup.table` returns that array; subgroup
queries (closure, conjugation) run on it with numpy.  Tables are validated
on construction: closure, identity, inverses, and associativity.
Associativity is verified with the generator-translation test, a complete
check at cost O(g * n^2) instead of O(n^3): take as the next generator g
the smallest element outside the closure of those before it, check
(x*g)*y == x*(g*y) for all x, y, and only then close.  Elements that pass
the test are closed under the product and the table is associative on them
(Light's test), and the inverse check gives each of them a bijective row
and column, so the closure of the generators that passed is a group.  It is
grown by `_closure_of`, as is every subgroup, Sylow subgroups included:
one right coset H*r at a time (Dimino's algorithm), or, from the trivial
group, one walk down a column.  A `Subgroup` is its read-only membership
mask, built once when it is validated; its members are the mask's indices.

`FiniteGroup.from_json` reads a document whose last key is "table" and whose
table is a square matrix of integers in [0, n), in the layout `to_json`
writes or any other JSON whitespace, with numpy: byte-level checks on the
matrix's text, one `np.fromstring` pass over its numbers, and `json.loads`
for the rest of the document.  Every other document, and any the numpy read
cannot decide, goes through `json.loads` whole, the reference the tests
compare the numpy read with.  Either way the row count is checked against
the order cap before the n x n array is built.

The constructions build int32 tables by index arithmetic: one rule,
`_extension_table`, builds the cyclic, abelian, dihedral, dicyclic and
cyclic-by-cyclic semidirect families, and the symmetric and alternating
groups compose their sorted permutations with numpy.

Groups are immutable after validation and safe to share across threads.
A group fills a few private memos lazily, each on first use: its cyclic
subgroups, each keyed by its smallest generator with its members ascending,
and with them the element orders; the inverses; the totient of each element
order; and, per prime q dividing the order, one Sylow q-subgroup P with its
normalizer N(P).  The cyclic subgroups are found in one pass that walks each
of them once, from its smallest generator, and the element orders, the power
graph and the witness check all read that pass.  Later queries (`phi`,
`sylow_subgroup`, `count_sylow`, `normalizer` and `is_normal` on that P)
read the memo instead of recomputing.  Filling a memo is idempotent: two
threads that race on one compute equal values, and either write may stand,
so sharing a group across threads stays safe.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from itertools import permutations as _permutations
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import numtheory

DEFAULT_ORDER_CAP = 2000


class GroupValidationError(ValueError):
    """A Cayley table failed one of the group axioms."""


class NotClosedError(GroupValidationError):
    def __init__(self, i, j, value, order):
        self.witness = (i, j)
        super().__init__(
            f"not closed: table[{i}][{j}] = {value} outside [0, {order})"
        )


class NoIdentityError(GroupValidationError):
    def __init__(self, identity, witness):
        self.witness = witness
        super().__init__(
            f"element {identity} is not a two-sided identity (fails at {witness})"
        )


class NoInverseError(GroupValidationError):
    def __init__(self, element):
        self.witness = element
        super().__init__(f"element {element} has no inverse")


class NotAssociativeError(GroupValidationError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(
            f"not associative: ({i}*{j})*{k} != {i}*({j}*{k})"
        )


class OrderCapError(ValueError):
    def __init__(self, order, cap):
        super().__init__(f"order {order} exceeds cap {cap}")


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapError(order, cap)


# --- table validation ---


def _powers(arr: np.ndarray, g: int) -> list[int]:
    """g, g^2, ..., identity: the walk down column g (x -> x*g) from g back to g."""
    out = [g]
    x = arr.item(g, g)
    while x != g:
        out.append(x)
        x = arr.item(x, g)
    return out


def _closure_of(
    arr: np.ndarray, inside: np.ndarray, gens: Sequence[int], g: int
) -> np.ndarray:
    """Membership mask of <H, g>, where H = <gens> is the subgroup whose
    membership mask is `inside` (not modified).

    The table must be associative on H and g, and right multiplication by
    g must be a bijection: a validated group, or validation once g has
    passed the translation test.  From the trivial group, <g> is the walk
    down column g.  Otherwise <H, g> is grown as a union of right cosets
    H*r (Dimino's algorithm): each new representative r is multiplied by
    the generators, and each product outside the members so far adds its
    coset, one gather table[H, r].
    """
    members = inside.copy()
    if members[g]:
        return members
    if not gens:
        members[_powers(arr, g)] = True
        return members
    subgroup = np.flatnonzero(inside)
    mult = [*gens, g]
    members[arr[subgroup, g]] = True
    reps = np.array([g], dtype=np.intp)  # H*e = H needs only e*g = g
    while reps.size:
        products = arr[reps[:, None], mult].ravel()
        fresh = []
        for r in products[~members[products]].tolist():
            if not members[r]:  # an earlier r of this round may have covered it
                members[arr[subgroup, r]] = True
                fresh.append(r)
        reps = np.array(fresh, dtype=np.intp)
    return members


def _member_mask(order: int, members: Sequence[int]) -> np.ndarray:
    """Boolean membership vector of length `order`."""
    inside = np.zeros(order, dtype=bool)
    inside[np.asarray(members, dtype=np.intp)] = True
    return inside


def _validate_table(raw: np.ndarray, identity: int) -> np.ndarray:
    """Check the group axioms and return the table narrowed to int32.
    Entries are range-checked before narrowing, so none can wrap into range."""
    if raw.ndim != 2 or raw.shape[0] == 0 or raw.shape[0] != raw.shape[1]:
        raise GroupValidationError(f"table must be a nonempty square, got shape {raw.shape}")
    if not np.issubdtype(raw.dtype, np.integer):
        raise GroupValidationError(f"table entries must be integers, got {raw.dtype}")
    if isinstance(identity, bool) or not isinstance(identity, int):
        raise GroupValidationError(f"identity must be an integer index, got {identity!r}")
    n = raw.shape[0]
    if not (0 <= identity < n):
        raise NoIdentityError(identity, "index out of range")

    if raw.min() < 0 or raw.max() >= n:
        i, j = map(int, np.argwhere((raw < 0) | (raw >= n))[0])
        raise NotClosedError(i, j, int(raw[i, j]), n)

    arr = raw.astype(np.int32)
    idx = np.arange(n)
    if not (np.array_equal(arr[identity], idx) and np.array_equal(arr[:, identity], idx)):
        row_bad = np.nonzero(arr[identity] != idx)[0]
        col_bad = np.nonzero(arr[:, identity] != idx)[0]
        witness = int(row_bad[0]) if row_bad.size else int(col_bad[0])
        raise NoIdentityError(identity, witness)

    is_identity = arr == identity
    missing = np.flatnonzero(~(is_identity.any(axis=1) & is_identity.any(axis=0)))
    if missing.size:
        raise NoInverseError(int(missing[0]))

    # Associativity by the generator-translation test.  The next generator
    # is the smallest element outside the closure so far; it is tested
    # before the closure grows.  Elements that pass are closed under the
    # product, the table is associative on them, and the inverse check
    # makes each one's row and column bijective, so the closure of passing
    # generators is a group and `_closure_of` may grow it by cosets.  It is
    # the magma closure, so a failure names the same (x, g, y) as testing
    # all generators after closing on the raw table.
    gens: list[int] = []
    closed = _member_mask(n, [identity])
    while not closed.all():
        g = int(np.argmin(closed))
        left = arr[arr[:, g], :]              # (x*g)*y
        right = np.take(arr, arr[g], axis=1)  # x*(g*y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociativeError(x, g, y)
        closed = _closure_of(arr, closed, gens, g)
        gens.append(g)
    return arr


# --- reading the JSON wire format ---


_TABLE_KEY = re.compile(r'"table"[ \t\n\r]*:[ \t\n\r]*\[')
_CELLS_TO_WORDS = bytes.maketrans(b"[],\t\n\r", b"      ")  # digits stay


def _read_square_table(text: str, cap: int) -> Optional[dict]:
    """The group document with its "table" read by numpy, or None for any
    document this read cannot decide; `json.loads` then reads it whole.

    It decides an ASCII document whose last key is "table", written without
    escapes and first in the text, with a square JSON matrix of integers in
    [0, n) written without leading zeros as its value: the layout `to_json`
    writes, the compact one, and any other JSON whitespace between tokens.
    The rest of the document goes through `json.loads` with the matrix
    replaced by `NaN`, which must be the one constant read and come back as
    the value of "table", in objects without a duplicate key.  The row count
    is then checked against `cap`, as `from_json_dict` checks it, before the
    numbers are read.
    """
    key = text.find('"table"')
    found = _TABLE_KEY.match(text, key) if key >= 0 and text.isascii() else None
    end = text.rfind("]") + 1
    if found is None or text[end:].strip(" \t\n\r") != "}":
        return None
    start = found.end() - 1
    matrix = text[start:end].encode("ascii")
    dense = matrix.translate(None, b" \t\n\r")
    # With digits deleted, n rows of n slots leave (n + 1)^2 bytes.
    skeleton = dense.translate(None, b"0123456789")
    n = math.isqrt(len(skeleton)) - 1
    if n < 1 or skeleton != b"[" + b",".join([b"[" + b"," * (n - 1) + b"]"] * n) + b"]":
        return None
    # No digit outside a slot, and one run of digits in each slot.
    if not (dense.startswith(b"[[") and dense.endswith(b"]]")
            and dense.count(b"],[") == n - 1):
        return None
    is_digit = np.subtract(np.frombuffer(dense, dtype=np.uint8), 48, dtype=np.uint8) < 10
    if np.count_nonzero(is_digit[1:] > is_digit[:-1]) != n * n:
        return None
    digits = len(dense) - len(skeleton)
    del dense, skeleton, is_digit  # freed before the numbers are read

    placeholder = object()
    read = []  # each constant read, and None for each duplicate key

    def constant(token):
        read.append(token)
        return placeholder

    def unique_keys(pairs):
        obj = dict(pairs)
        read.extend([None] * (len(pairs) - len(obj)))
        return obj

    try:
        data = json.loads(text[:start] + "NaN" + text[end:], parse_constant=constant,
                          object_pairs_hook=unique_keys)
    except (ValueError, RecursionError):
        return None
    if read != ["NaN"] or not isinstance(data, dict) or data.get("table") is not placeholder:
        return None
    _check_cap(n, cap)

    # numpy reads each run of digits between whitespace as one number, so n * n
    # numbers means no whitespace inside one.  Numbers in [0, n) whose digits
    # add up to the digits written had no leading zero and were not too long
    # for int32 (numpy would wrap those).
    cells = np.fromstring(matrix.translate(_CELLS_TO_WORDS), dtype=np.int32, sep=" ")
    if cells.size != n * n or cells.min() < 0 or cells.max() >= n:
        return None
    if digits != n * n + sum(
        int(np.count_nonzero(cells >= 10**k)) for k in range(1, len(str(n - 1)))
    ):
        return None
    data["table"] = cells.reshape(n, n)
    return data


# --- the group itself ---


class FiniteGroup:
    """An immutable finite group given by its multiplication table."""

    __slots__ = (
        "name", "identity", "labels", "_table", "_orders", "_classes", "_inverses",
        "_totients", "_sylow",
    )

    def __init__(
        self,
        table: Union[Sequence[Sequence[int]], np.ndarray],
        identity: int = 0,
        name: str = "G",
        labels: Optional[Sequence[str]] = None,
    ):
        try:
            raw = np.asarray(table)
        except ValueError as exc:  # ragged rows: numpy's "inhomogeneous shape"
            raise GroupValidationError(
                "table must be a nonempty square, got rows of unequal length"
            ) from exc
        arr = _validate_table(raw, identity)
        if not isinstance(table, np.ndarray):
            # numpy reads a list that mixes ints and bools as integers, so a
            # bool can only have become a cell holding 0 or 1: 2n cells of a group
            for i, j in np.argwhere((arr == 0) | (arr == 1)).tolist():
                if isinstance(table[i][j], (bool, np.bool_)):
                    raise GroupValidationError(
                        f"table entries must be integers, got a bool at [{i}][{j}]"
                    )
        arr.flags.writeable = False
        self._table = arr
        self.identity = identity
        self.name = name
        n = arr.shape[0]
        if labels is not None:
            if len(labels) != n:
                raise ValueError("need one label per element")
            self.labels = tuple(str(s) for s in labels)
        else:
            self.labels = tuple(str(i) for i in range(n))
        # _cyclic_classes fills both; see there for (key, powers)
        self._orders: Optional[tuple[int, ...]] = None
        self._classes: Optional[tuple[tuple[int, ...], dict[int, tuple[int, ...]]]] = None
        self._inverses: Optional[np.ndarray] = None
        self._totients: Optional[dict[int, int]] = None
        self._sylow: dict[int, tuple[Subgroup, Subgroup]] = {}  # q -> (P, N(P))

    @property
    def order(self) -> int:
        return self._table.shape[0]

    @property
    def table(self) -> np.ndarray:
        """The validated Cayley table: a read-only n x n int32 array."""
        return self._table

    def __len__(self) -> int:
        return self._table.shape[0]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def _check_index(self, g: int) -> None:
        if not (0 <= g < self.order):
            raise IndexError(f"element index {g} out of range for order {self.order}")

    def _inverse_array(self) -> np.ndarray:
        if self._inverses is None:
            self._inverses = np.argmax(self._table == self.identity, axis=1)
        return self._inverses

    def inverse(self, g: int) -> int:
        self._check_index(g)
        return int(self._inverse_array()[g])

    def element_order(self, g: int) -> int:
        """Smallest m >= 1 with g^m = identity; divides the group order."""
        self._check_index(g)
        return self.element_orders()[g]

    def element_orders(self) -> tuple[int, ...]:
        """Orders of all elements (computed once, then cached): o(g) = |<g>|,
        filled with the memo of the one walk of each cyclic subgroup."""
        self._cyclic_classes()
        return self._orders

    def _cyclic_classes(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        """(key, powers): key[g] is the smallest generator of <g>, and
        powers[k] is <k> as an ascending tuple, one entry per key.

        One pass over g ascending walks <g> only from an element without a
        key yet, so each cyclic subgroup is walked once, from its smallest
        generator.  In the walk g, g^2, ..., g^m = identity, g^i generates
        <g> exactly when gcd(i, m) = 1.  The pass also fills the element
        orders: o(h) = |<h>| = |<key[h]>|."""
        if self._classes is None:
            key = [-1] * self.order
            powers = {}
            for g in range(self.order):
                if key[g] < 0:
                    cycle = self.cyclic_subgroup(g)
                    m = len(cycle)
                    for i, h in enumerate(cycle, start=1):
                        if math.gcd(m, i) == 1:
                            key[h] = g
                    powers[g] = tuple(sorted(cycle))
            self._orders = tuple(len(powers[k]) for k in key)
            self._classes = (tuple(key), powers)
        return self._classes

    def cyclic_subgroup(self, g: int) -> tuple[int, ...]:
        """The powers of g: (g, g^2, ..., identity)."""
        self._check_index(g)
        return tuple(_powers(self._table, g))

    def order_totients(self) -> dict[int, int]:
        """phi(m) for each distinct element order m (computed once, then cached)."""
        if self._totients is None:
            self._totients = numtheory.totient_table(self.element_orders())
        return self._totients

    def phi(self) -> int:
        """The totient-sum invariant: sum of phi(order(g)) over all g."""
        tot = self.order_totients()
        return sum(tot[o] for o in self.element_orders())

    def is_cyclic(self) -> bool:
        """True iff some element has order equal to the group order."""
        n = self.order
        return any(o == n for o in self.element_orders())

    # --- subgroups ---

    def generated_subgroup(self, gens: Iterable[int]) -> "Subgroup":
        """Smallest subgroup containing `gens`, adding one generator at a time."""
        gens = list(gens)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            self._check_index(g)
        inside = _member_mask(self.order, [self.identity])
        for i, g in enumerate(gens):
            inside = _closure_of(self._table, inside, gens[:i], g)
        return Subgroup(self, np.flatnonzero(inside))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,))

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        """Elements g with g * sub * g^-1 == sub.  For a Sylow subgroup that
        `sylow_subgroup` returned, this is its stored normalizer."""
        self._own(sub)
        for p_subgroup, normalizer in self._sylow.values():
            if sub == p_subgroup:
                return normalizer
        return Subgroup(self, np.flatnonzero(self._normalizer_mask(sub.mask)))

    def _normalizer_mask(self, inside: np.ndarray) -> np.ndarray:
        """Membership mask of N(H), for H given by its membership mask."""
        t = self._table
        members = np.flatnonzero(inside)
        conjugates = t[t[:, members], self._inverse_array()[:, None]]  # [g, k] = g h_k g^-1
        return inside[conjugates].all(axis=1)

    def is_normal(self, sub: "Subgroup") -> bool:
        return len(self.normalizer(sub)) == self.order

    def _own(self, sub: "Subgroup") -> None:
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")

    # --- Sylow machinery ---

    def sylow_subgroup(self, q: int) -> "Subgroup":
        """A Sylow q-subgroup: full q-part of the order.

        Found by normalizer-guided growth: start from the cyclic subgroup
        of the first q-element of maximal order; while the current
        q-subgroup H is too small, the smallest q-element of N(H) outside H
        extends H to a strictly larger q-subgroup (one is guaranteed to
        exist, so the loop terminates at the full q-part).  <H, x> is grown
        by `_closure_of` on membership masks.  The first call for q stores P
        and N(P) in the group's memo; later calls return the same P.
        Returns the trivial subgroup when q does not divide the order.
        """
        if not numtheory.is_prime(q):
            raise ValueError(f"{q} is not prime")
        if self.order % q != 0:
            return self.trivial_subgroup()
        return self._sylow_pair(q)[0]

    def _sylow_pair(self, q: int) -> tuple["Subgroup", "Subgroup"]:
        """(P, N(P)) for the Sylow q-subgroup P; q is a prime dividing the order."""
        pair = self._sylow.get(q)
        if pair is not None:
            return pair
        n = self.order
        q_part = 1
        m = n
        while m % q == 0:
            q_part *= q
            m //= q
        orders = np.asarray(self.element_orders())
        q_elements = q_part % orders == 0  # orders divide n, so these are the q-powers
        seed = int(np.argmax(np.where(q_elements, orders, 0)))

        seed_subgroup = self.generated_subgroup([seed])
        inside = seed_subgroup.mask
        gens = [seed]
        size = int(np.count_nonzero(inside))
        normalizer_mask = self._normalizer_mask(inside)
        while size < q_part:
            outside = np.flatnonzero(normalizer_mask & q_elements & ~inside)
            if not outside.size:
                raise AssertionError(f"Sylow growth stalled at order {size} < {q_part}")
            x = int(outside[0])
            inside = _closure_of(self._table, inside, gens, x)
            gens.append(x)
            grown_size = int(np.count_nonzero(inside))
            if not (grown_size > size and q_part % grown_size == 0):
                raise AssertionError("Sylow growth produced a non-q-subgroup")
            size = grown_size
            normalizer_mask = self._normalizer_mask(inside)
        # with no growth step, <seed> is P and is validated already
        p_subgroup = seed_subgroup if len(gens) == 1 else Subgroup(self, np.flatnonzero(inside))
        pair = (p_subgroup, Subgroup(self, np.flatnonzero(normalizer_mask)))
        self._sylow[q] = pair
        return pair

    def count_sylow(self, q: int) -> int:
        """Number of Sylow q-subgroups, as the index of one's normalizer,
        which `sylow_subgroup`'s memo holds.

        Checks the classical constraints: congruent to 1 mod q and divides
        the q-free part of the order.
        """
        if not numtheory.is_prime(q):
            raise ValueError(f"{q} is not prime")
        if self.order % q != 0:
            raise ValueError(f"{q} does not divide the group order {self.order}")
        p_subgroup, normalizer = self._sylow_pair(q)
        count = self.order // len(normalizer)
        q_free = self.order // len(p_subgroup)
        if count % q != 1 or q_free % count != 0:
            raise AssertionError(f"Sylow count {count} violates the counting laws")
        return count

    # --- JSON wire format ---

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "identity": self.identity,
            "table": self._table.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict, cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        if not isinstance(data, dict):
            raise GroupValidationError(
                f"group JSON must be an object, got {type(data).__name__}"
            )
        rows = data.get("table")
        if isinstance(rows, (list, np.ndarray)):  # before the n x n array is built
            _check_cap(len(rows), cap)
        try:
            table = data["table"]
            identity = data["identity"]
        except KeyError as exc:
            raise GroupValidationError(f"missing field {exc} in group JSON") from exc
        name = data.get("name", "G")
        if not isinstance(name, str):
            raise GroupValidationError(f"group name must be a string, got {name!r}")
        if "order" in data:
            declared = data["order"]
            if isinstance(declared, bool) or not isinstance(declared, int):
                raise GroupValidationError(f"declared order must be an integer, got {declared!r}")
        group = cls(table, identity, name=name)
        if group.order != data.get("order", group.order):
            raise GroupValidationError("declared order does not match the table")
        return group

    @classmethod
    def from_json(cls, text: str, cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        data = _read_square_table(text, cap)
        if data is None:
            data = json.loads(text)
        return cls.from_json_dict(data, cap)


class Subgroup:
    """A validated subgroup of a parent group: its read-only boolean `mask`
    over the parent's elements, and `members`, the mask's indices ascending."""

    __slots__ = ("parent", "members", "mask")

    def __init__(self, parent: FiniteGroup, members: Sequence[int]):
        self.parent = parent
        indices = np.asarray(members, dtype=np.intp)
        if not indices.size:
            raise ValueError("a subgroup cannot be empty")
        if indices.min() < 0 or indices.max() >= parent.order:
            raise IndexError(f"subgroup members must lie in [0, {parent.order})")
        self.mask = _member_mask(parent.order, indices)
        self.mask.flags.writeable = False
        if not self.mask[parent.identity]:
            raise ValueError("subgroup must contain the identity")
        indices = np.flatnonzero(self.mask)
        self.members = tuple(indices.tolist())
        if len(self.members) == parent.order:
            return  # every element: the whole group, closed since validation
        products = parent.table[np.ix_(indices, indices)]
        escaped = ~self.mask[products]
        if escaped.any():
            i, j = np.argwhere(escaped)[0]  # first escape in row-major order
            x, y = self.members[i], self.members[j]
            raise ValueError(f"not closed: {x}*{y} = {products[i, j]} escapes the subgroup")
        if parent.order % len(self.members) != 0:
            raise AssertionError("subgroup order must divide the group order")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, g: int) -> bool:
        return 0 <= g < self.mask.size and bool(self.mask[g])

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self)} of {self.parent.name!r})"

    def is_cyclic(self) -> bool:
        orders = self.parent.element_orders()
        return any(orders[g] == len(self) for g in self.members)


# --- module-level operation aliases ---


def from_cayley(
    table,
    identity: int = 0,
    name: str = "G",
    labels: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Validate a raw Cayley table into a FiniteGroup."""
    return FiniteGroup(table, identity, name=name, labels=labels)


def element_order(group: FiniteGroup, g: int) -> int:
    return group.element_order(g)


def phi_of_group(group: FiniteGroup) -> int:
    """Sum of phi(order(g)) over the group's elements."""
    return group.phi()


def is_cyclic(group: FiniteGroup) -> bool:
    return group.is_cyclic()


# --- constructions ---


def _integer(value, what: str) -> int:
    """`value` as an int; numpy integers pass, bools and non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _extension_table(a: int, b: int, r: int, c: int = 0, t_major: bool = True) -> np.ndarray:
    """The int32 table of the n = a*b pairs (u, t) under
    (u1, t1)(u2, t2) = (u1 + r^t1 u2 + c [t1 + t2 >= b] mod a, t1 + t2 mod b),
    with (u, t) at index u + a*t when `t_major` and u*b + t otherwise.

    The u-part is computed on the int32 axes (t1, u1, ., u2), or (u1, t1, u2, .),
    and the t-part on (t1, t2), so only the final sum is n^2, unless a carry
    c makes the u-part depend on t2.  No entry reaches a^2 + 2a, inside int32
    for any a < 46000 (such a table would take 8 GiB).
    """
    u = np.arange(a, dtype=np.int32)
    t = np.arange(b, dtype=np.int32)
    r_pow = np.array([pow(r, k, a) for k in range(b)], dtype=np.int32)
    if t_major:
        t1, u1, t2, u2 = np.ix_(t, u, t, u)
    else:
        u1, t1, u2, t2 = np.ix_(u, t, u, t)
    new_u = u1 + r_pow[t1] * u2
    if c:
        new_u = new_u + c * ((t1 + t2) // b)  # t1 + t2 < 2b: the carry is 0 or 1
    new_u %= a
    new_t = (t1 + t2) % b
    table = new_u + a * new_t if t_major else new_u * b + new_t
    return table.reshape(a * b, a * b)


def cyclic(n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The cyclic group of order n, written additively on 0..n-1."""
    n = _integer(n, "order")
    if n < 1:
        raise ValueError("order must be positive")
    _check_cap(n, cap)
    return FiniteGroup(_extension_table(n, 1, 1), 0, name=f"cyclic:{n}")


def _combine_tables(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Componentwise product table on pairs, indexed i1 * n2 + i2."""
    n = t1.shape[0] * t2.shape[0]
    return (t1[:, None, :, None] * t2.shape[0] + t2[None, :, None, :]).reshape(n, n)


def abelian(factors: Sequence[int], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product of cyclic groups C_d1 x C_d2 x ... """
    factors = [_integer(d, "factor") for d in factors]
    if not factors or any(d < 1 for d in factors):
        raise ValueError("need positive cyclic factors")
    n = math.prod(factors)
    _check_cap(n, cap)
    table = functools.reduce(_combine_tables, [_extension_table(d, 1, 1) for d in factors])
    name = "abelian:" + "x".join(str(d) for d in factors)
    labels = _pair_labels(factors)
    return FiniteGroup(table, 0, name=name, labels=labels)


def _pair_labels(factors: Sequence[int]) -> list[str]:
    labels = [""]
    for d in factors:
        labels = [
            (f"{a},{i}" if a else str(i)) for a in labels for i in range(d)
        ]
    return [f"({s})" if "," in s else s for s in labels]


def dihedral(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetries of the regular m-gon, order 2m.

    Element r + m*s is rotation^r * flip^s; flips conjugate rotations to
    their inverses.
    """
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("need m >= 1")
    _check_cap(2 * m, cap)
    labels = [f"r{r}" for r in range(m)] + [f"sr{r}" for r in range(m)]
    return FiniteGroup(_extension_table(m, 2, -1), 0, name=f"dihedral:{m}", labels=labels)


def dicyclic(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The dicyclic group of order 4m; dicyclic(2) is the quaternion group.

    Presentation a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1; element
    r + 2m*s is a^r * b^s.  Two b's meeting carry m into the exponent of a.
    """
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("need m >= 1")
    _check_cap(4 * m, cap)
    labels = [f"a{r}" for r in range(2 * m)] + [f"ba{r}" for r in range(2 * m)]
    return FiniteGroup(_extension_table(2 * m, 2, -1, c=m), 0, name=f"dicyclic:{m}",
                       labels=labels)


def _perm_group(perms: np.ndarray, name: str, cap: int) -> FiniteGroup:
    """The group of the rows of `perms`, permutations sorted lexicographically
    with the identity first, under p*q = x -> p[q[x]].  Each product is coded
    in base k, first column most significant, and found among the rows' codes."""
    n, k = perms.shape
    _check_cap(n, cap)
    codes = np.zeros((n, n), dtype=np.int32)
    for x in range(k):
        codes *= k
        codes += perms[:, perms[:, x]]  # [i, j] = p_i[p_j[x]]
    keys = codes[:, 0]  # p_i * identity = p_i
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    return FiniteGroup(np.searchsorted(keys, codes), 0, name=name, labels=labels)


def _all_permutations(k: int) -> np.ndarray:
    """The permutations of k points (1 <= k <= 6) as int8 rows, sorted."""
    k = _integer(k, "k")
    if not 1 <= k <= 6:
        raise ValueError("supported for 1 <= k <= 6")
    return np.array(list(_permutations(range(k))), dtype=np.int8)


def symmetric(k: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """All permutations of k points (k <= 6)."""
    return _perm_group(_all_permutations(k), f"sym:{k}", cap)


def alternating(k: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Even permutations of k points (k <= 6)."""
    perms = _all_permutations(k)
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    return _perm_group(perms[inversions % 2 == 0], f"alt:{k}", cap)


def direct_product(
    g1: FiniteGroup, g2: FiniteGroup, cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Componentwise product on pairs, indexed i1 * |g2| + i2.

    Checks the order law o((u,t)) = o(u) o(t) / gcd(o(u), o(t)) on the
    result.
    """
    n = g1.order * g2.order
    _check_cap(n, cap)
    table = _combine_tables(g1.table, g2.table)
    identity = g1.identity * g2.order + g2.identity
    labels = [f"({a},{b})" for a in g1.labels for b in g2.labels]
    product = FiniteGroup(
        table, identity, name=f"prod:{g1.name},{g2.name}", labels=labels
    )
    expected = np.lcm.outer(g1.element_orders(), g2.element_orders())
    failing = np.argwhere(np.reshape(product.element_orders(), expected.shape) != expected)
    if failing.size:
        i1, i2 = failing[0].tolist()  # the first in row-major order
        raise AssertionError(f"order law fails at ({i1},{i2}) in {product.name}")
    return product


@dataclass(frozen=True)
class SemidirectSpec:
    """Parameters for a cyclic-by-cyclic semidirect product.

    `r` must be a unit mod `a` with r^b = 1 (mod a), so that t -> (u -> r^t u)
    is an action of the order-b cyclic group on the order-a one.  r = 1 (any
    r = 1 mod a) gives the direct product.
    """

    a: int
    b: int
    r: int

    def __post_init__(self):
        for what in ("a", "b", "r"):  # numpy integers are held as ints
            object.__setattr__(self, what, _integer(getattr(self, what), what))
        if self.a < 1 or self.b < 1:
            raise ValueError("need a, b >= 1")
        r = self.r % self.a if self.a > 1 else 1
        if math.gcd(r, self.a) != 1:
            raise ValueError(f"r={self.r} is not a unit modulo {self.a}")
        if self.a > 1 and pow(r, self.b, self.a) != 1:
            raise ValueError(f"r={self.r}: r^{self.b} is not 1 modulo {self.a}")

    @property
    def is_direct(self) -> bool:
        return self.a == 1 or self.r % self.a == 1

    @property
    def coprime(self) -> bool:
        return math.gcd(self.a, self.b) == 1


def semidirect_cyclic(spec: SemidirectSpec, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """C_a acted on by C_b through multiplication by r.

    Elements are pairs (u, t) indexed u * b + t, with
    (u1, t1) * (u2, t2) = (u1 + r^t1 * u2 mod a, t1 + t2 mod b).
    """
    a, b = spec.a, spec.b
    _check_cap(a * b, cap)
    labels = [f"({u},{t})" for u in range(a) for t in range(b)]
    return FiniteGroup(_extension_table(a, b, spec.r, t_major=False), 0,
                       name=f"sdp:{a}:{b}:{spec.r}", labels=labels)


def enumerate_semidirect_units(a: int, b: int) -> list[int]:
    """All r in [1, a) acting validly (unit mod a with r^b = 1 mod a).

    Always contains r = 1; for a == 1 that is the only (trivial) action.
    """
    a, b = _integer(a, "a"), _integer(b, "b")
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if a == 1:
        return [1]
    return [
        r for r in range(1, a) if math.gcd(r, a) == 1 and pow(r, b, a) == 1
    ]


# --- the construction catalog ---


def _partitions(k: int, largest: Optional[int] = None):
    """Partitions of k as descending tuples, largest part first."""
    if k == 0:
        yield ()
        return
    cap_part = min(k, largest if largest is not None else k)
    for first in range(cap_part, 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def abelian_invariant_factor_lists(n: int) -> list[list[int]]:
    """One invariant-factor list per abelian group of order n.

    The first entry is always [n] (the cyclic group); factors are returned
    ascending and each divides the next.
    """
    fact = numtheory.factorize(n)
    per_prime = [
        [(p, part) for part in _partitions(a)] for p, a in fact.factors
    ]
    combos = [[]]
    for options in per_prime:
        combos = [combo + [opt] for combo in combos for opt in options]
    results = []
    for combo in combos:
        depth = max((len(part) for _, part in combo), default=0)
        invariant = []
        for layer in range(depth):
            d = 1
            for p, part in combo:
                if layer < len(part):
                    d *= p ** part[layer]
            invariant.append(d)
        results.append(sorted(invariant) if invariant else [1])
    return results


def catalog(n: int, cap: int = DEFAULT_ORDER_CAP) -> list[FiniteGroup]:
    """Constructible groups of order n, each construction once.

    Covers every abelian group of order n, dihedral and dicyclic groups
    when the order permits, the symmetric and alternating groups on up to
    six points when their order is exactly n, and every cyclic-by-cyclic
    semidirect product over coprime factorizations n = a*b (a, b >= 2).
    This is catalog coverage, not a classification of all groups of
    order n.
    """
    n = _integer(n, "order")
    if n < 1:
        raise ValueError("order must be positive")
    _check_cap(n, cap)
    groups: list[FiniteGroup] = []
    for invariant in abelian_invariant_factor_lists(n):
        if invariant == [n] or n == 1:
            groups.append(cyclic(n, cap))
        else:
            groups.append(abelian(invariant, cap))
    if n % 2 == 0 and n >= 6:
        groups.append(dihedral(n // 2, cap))
    if n % 4 == 0 and n >= 8:
        groups.append(dicyclic(n // 4, cap))
    for k in (3, 4, 5, 6):
        if math.factorial(k) == n:
            groups.append(symmetric(k, cap))
        if math.factorial(k) // 2 == n:
            groups.append(alternating(k, cap))
    for a in numtheory.divisors(n):
        b = n // a
        if a < 2 or b < 2 or math.gcd(a, b) != 1:
            continue
        for r in enumerate_semidirect_units(a, b):
            groups.append(semidirect_cyclic(SemidirectSpec(a, b, r), cap))
    return groups
