"""Finite groups as dense Cayley tables, with constructions and subgroup machinery.

A group of order n is an n x n table of element indices plus the index of
the identity.  The table is held once, as one read-only C-contiguous int32
array, and `FiniteGroup.table` returns it; subgroup queries (closure,
conjugation) run on it with numpy.  `_validate_table` checks every table:
closure, identity, inverses and associativity.  A constructor's or the JSON
read's new table comes as `_Fresh` and is kept in place; any other (a
caller's, a pickle's) is copied block by block as its range is checked.
Associativity is verified with the generator-translation test, a complete
check at cost O(g * n^2) instead of O(n^3): take as the next generator g
the smallest element outside the closure of those before it, check
(x*g)*y == x*(g*y) for all x, y, and only then close.  Elements that pass
the test are closed under the product and the table is associative on them
(Light's test), and the inverse check gives each of them a bijective row
and column, so the closure of the generators that passed is a group.  The
range check with the copy, the inverse check and the translation test run
over blocks of whole rows of at most `_BLOCK_CELLS` cells, into scratch
arrays made once per validation, so beside `np.asarray`'s array of a list
the group's table is the only n x n array validation holds.  The closure
is grown by `_closure_of`, as is every subgroup, Sylow subgroups included:
<H, g> starts as H*<g>, the cosets H*g^i up to the first power of g inside
H, found by one walk down column g and added in one gather, and then grows
by right cosets H*r (Dimino's algorithm) until the generators map it into
itself.  A `Subgroup` is its read-only membership mask, built once when it
is validated; its members are the mask's indices.
The normalizer N(H) is found by conjugating a generating set of H by every
element, one gather of n x |gens| cells: the Sylow search passes the
generators it grew H from, and `normalizer` passes H's members.

`FiniteGroup.from_json` reads a document whose last key is "table" and whose
table is a square matrix of integers in [0, n), in the layout `to_json`
writes or any other JSON whitespace, with numpy: byte-level checks on the
matrix's text, `json.loads` for the rest of the document, and a place-value
read of the numbers from their digit bytes, in chunks of about
`_CHUNK_BYTES` cut at commas into a preallocated int32 array.  Every other
document, and any the numpy read cannot decide, goes through `json.loads`
whole, the reference the tests compare the numpy read with.  Either way the
row count is checked against the order cap before the n x n array is built,
and the numpy read's array becomes the group's table.

The constructions build int32 tables by index arithmetic: one rule,
`_extension_table`, builds the cyclic, abelian, dihedral, dicyclic and
cyclic-by-cyclic semidirect families, and the symmetric and alternating
groups compose their sorted permutations with numpy.

Groups are immutable after validation and safe to share across threads.
The inverses are not a memo: the inverse check finds each element's inverse
as the column of the identity in its row, and the group keeps that read-only
array from construction on.  A group fills a few private memos lazily, each
on first use: its cyclic subgroups, each keyed by its smallest generator
with its members ascending, and with them the element orders; the totient
of each element order; and, per prime q dividing the order, one Sylow
q-subgroup P with its normalizer N(P).  The cyclic subgroups are found in
one pass that walks each of them once, from its smallest generator, and the
element orders, the power graph and the witness check all read that pass;
which positions of a walk of length m generate it, the phi(m) exponents
coprime to m, is worked out once per distinct m in that pass.
Later queries (`phi`, `sylow_subgroup`, `count_sylow`, `normalizer` and
`is_normal` on that P) read the memo instead of recomputing.  Filling a memo
is idempotent: two threads that race on one compute equal values, and either
write may stand, so sharing a group across threads stays safe.

A spec string names a group, and `FiniteGroup.from_spec` holds the grammar
and builds it; each construction names its group by the spec that builds it.
`_KINDS` is the one table of spec kinds: each kind but prod: maps to its
builder, and `from_spec` and `_split_prod` read its keys.  A group's order
is computed in one place, its constructor's cap check, which runs before
any table is built.  A product learns its factors' orders from those
checks: once a factor has met the cap, the factors after it are checked
under cap 0, so each names its exact order and builds no table.
`catalog_specs(n)` lists the catalog's specs without building a table, and
`catalog(n)` builds the group of each.

`labels` is built each time it is read by the group's label rule, a
`functools.partial` of a module-level function; only the rule is stored, so
the many groups that are never exported never build their n label strings.
A pickle or deepcopy of a group goes back through the validating
constructor, and of a subgroup through its own: a pickle is outside input,
and its arrays come back read-only.
"""

from __future__ import annotations

import copyreg
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import numtheory
from .numtheory import _integer

DEFAULT_ORDER_CAP = 2000


class _Error(ValueError):
    """An error that pickles as its type, its message and its attributes, as a
    `--jobs` worker hands it back: the subclasses take other arguments than
    the message, so re-raising through `__init__` would fail or reword it."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), str(self)), self.__dict__


class GroupValidationError(_Error):
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


class OrderCapError(_Error):
    """A group over the order cap; `order` is its exact order.  An order that
    Python will not write as a decimal string (more than 4300 digits by
    default) is named by its digit count."""

    def __init__(self, order, cap):
        try:
            named = str(order)
        except ValueError:
            # 2^(b-1) <= order < 2^b puts its digit count at `digits` or one more
            digits = 1 + int((order.bit_length() - 1) * math.log10(2))
            named = f"of {digits + (order >= 10**digits)} digits"
        super().__init__(f"order {named} exceeds cap {cap}")
        self.order = order


class SpecError(_Error):
    """Malformed group spec (a usage error).  `spec` is the piece of a
    group spec at fault when `FiniteGroup.from_spec` raised it, else None."""

    def __init__(self, message, spec: Optional[str] = None):
        super().__init__(message if spec is None else f"bad group spec {spec!r}: {message}")
        self.spec = spec


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise OrderCapError(order, cap)


# --- table validation ---


# Cells per block of rows in the inverse check and the translation test:
# 256 KiB of int32 per scratch array, so each block stays in cache.
_BLOCK_CELLS = 1 << 16


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
    passed the translation test.  <H, g> is grown as a union of right
    cosets H*r (Dimino's algorithm), seeded with H*<g>: the walk down
    column g from g meets H first at g^k, the least power of g inside H,
    so H*g, ..., H*g^(k-1) are distinct cosets outside H, added in one
    gather table[H, reps].  Then each new representative r is multiplied
    by the generators, and each product outside the members so far adds
    its coset, one gather table[H, r].  From the trivial group the seed is
    <g> and no product falls outside it; a g already in H is its own least
    power inside H, so the seed is H*g = H and the mask comes back unchanged.
    """
    members = inside.copy()
    walk = [g]
    x = arr.item(g, g)
    while not inside[x]:  # the cycle of x -> x*g through g passes the identity
        walk.append(x)
        x = arr.item(x, g)
    reps = np.array(walk, dtype=np.intp)
    subgroup = np.flatnonzero(inside)
    members[arr[subgroup[:, None], reps]] = True
    mult = [*gens, g]
    products = arr[reps[:, None], gens].ravel()  # each g^i * g is in H*<g>
    while products.size:
        fresh = []
        for r in products[~members[products]].tolist():
            if not members[r]:  # an earlier r of this round may have covered it
                members[arr[subgroup, r]] = True
                fresh.append(r)
        products = arr[np.array(fresh, dtype=np.intp)[:, None], mult].ravel()
    return members


def _member_mask(order: int, members: Sequence[int]) -> np.ndarray:
    """Boolean membership vector of length `order`."""
    inside = np.zeros(order, dtype=bool)
    inside[np.asarray(members, dtype=np.intp)] = True
    return inside


def _validate_table(
    table: Union[Sequence[Sequence[int]], np.ndarray, _Fresh], identity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Check the group axioms and return the table as C-contiguous int32, with
    the inverse table that the inverse check finds.  A `_Fresh` table is kept
    in place; any other is copied block by block, each block range-checked
    on the caller's values before narrowing, so none can wrap into range."""
    fresh = isinstance(table, _Fresh)
    if fresh:
        raw = table.table
    else:
        try:
            raw = np.asarray(table)
        except ValueError as exc:  # ragged rows: numpy's "inhomogeneous shape"
            raise GroupValidationError(
                "table must be a nonempty square, got rows of unequal length"
            ) from exc
    if raw.ndim != 2 or raw.shape[0] == 0 or raw.shape[0] != raw.shape[1]:
        raise GroupValidationError(f"table must be a nonempty square, got shape {raw.shape}")
    if not np.issubdtype(raw.dtype, np.integer):
        raise GroupValidationError(f"table entries must be integers, got {raw.dtype}")
    try:
        identity = _integer(identity, "identity")
    except ValueError:
        raise GroupValidationError(
            f"identity must be an integer index, got {identity!r}") from None
    n = raw.shape[0]
    if not (0 <= identity < n):
        raise NoIdentityError(identity, "index out of range")
    arr = raw if fresh else np.empty((n, n), dtype=np.int32)

    # The inverse check and the translation test run over blocks of rows of
    # at most _BLOCK_CELLS cells, writing into scratch arrays made once, so
    # the one n x n array validation holds is the group's table: the copy
    # of a caller's table, or a fresh table itself.
    rows = min(n, max(1, _BLOCK_CELLS // n))
    left = np.empty((rows, n), dtype=np.int32)
    right = np.empty((rows, n), dtype=np.int32)
    same = np.empty((rows, n), dtype=bool)
    blocks = []  # (first row, its rows of arr, the scratch arrays cut to fit)
    for start in range(0, n, rows):
        k = min(rows, n - start)
        blocks.append((start, arr[start:start + k], left[:k], right[:k], same[:k]))

    # Both masks cover every block before any x is named, so a missing
    # inverse is the smallest x whose row or column lacks the identity.  The
    # range is checked here, a block at a time in row order, on the input's
    # own values before a block is copied or any entry is used as an index:
    # the checks raise in the order range, identity, inverse.
    inverses = np.zeros(n, dtype=np.intp)
    row_has = np.zeros(n, dtype=bool)
    col_has = np.zeros(n, dtype=bool)
    for start, block, _, _, is_identity in blocks:
        given = raw[start:start + len(block)]
        if given.min() < 0 or given.max() >= n:  # name the first such entry, row-major
            i, j = map(int, np.argwhere((given < 0) | (given >= n))[0])
            raise NotClosedError(start + i, j, int(given[i, j]), n)
        if not fresh:
            block[...] = given
        np.equal(block, identity, out=is_identity)
        x, y = np.divmod(is_identity.ravel().nonzero()[0], n)
        x += start
        row_has[x] = True
        col_has[y] = True
        # x * inverses[x] = identity; a row holding the identity twice
        # cannot belong to a group, so which one lands here does not matter
        inverses[x] = y
    idx = np.arange(n)
    if not (np.array_equal(arr[identity], idx) and np.array_equal(arr[:, identity], idx)):
        row_bad = np.nonzero(arr[identity] != idx)[0]
        col_bad = np.nonzero(arr[:, identity] != idx)[0]
        witness = int(row_bad[0]) if row_bad.size else int(col_bad[0])
        raise NoIdentityError(identity, witness)
    missing = (~(row_has & col_has)).nonzero()[0]
    if missing.size:
        raise NoInverseError(int(missing[0]))

    # Associativity by the generator-translation test.  The next generator
    # is the smallest element outside the closure so far; it is tested
    # before the closure grows.  Elements that pass are closed under the
    # product, the table is associative on them, and the inverse check
    # makes each one's row and column bijective, so the closure of passing
    # generators is a group and `_closure_of` may grow it by cosets.  It is
    # the magma closure, so a failure names the same (x, g, y) as testing
    # all generators after closing on the raw table.  Blocks run in row
    # order, so the first block that fails holds the first failing (x, y).
    # mode="wrap" lets `take` write into its out array directly (the default
    # mode buffers it) and costs less than "clip"; the indices are already
    # in range, so both modes read the same cells.
    gens: list[int] = []
    closed = _member_mask(n, [identity])
    g = int(closed.argmin())
    while not closed[g]:
        column = arr[:, g].astype(np.intp)  # x*g
        row = arr[g].astype(np.intp)        # g*y
        for start, block, lhs, rhs, equal in blocks:
            arr.take(column[start:start + len(block)], axis=0, out=lhs, mode="wrap")  # (x*g)*y
            block.take(row, axis=1, out=rhs, mode="wrap")                           # x*(g*y)
            if not np.equal(lhs, rhs, out=equal).all():
                x, y = divmod(int(equal.argmin()), n)
                raise NotAssociativeError(start + x, g, y)
        closed = _closure_of(arr, closed, gens, g)
        gens.append(g)
        g = int(closed.argmin())
    if not isinstance(table, (np.ndarray, _Fresh)):
        # numpy reads a list that mixes ints and bools as integers, so a
        # bool can only have become a cell holding 0 or 1: 2n cells of a group.
        # Of the cells of an integer array, only a bool fails `_integer`.
        for i, j in np.argwhere(arr <= 1).tolist():  # arr >= 0 by the range check
            try:
                _integer(table[i][j], "table entry")
            except ValueError:
                raise GroupValidationError(
                    f"table entries must be integers, got a bool at [{i}][{j}]"
                ) from None
    return arr, inverses


# --- reading the JSON wire format ---


_TABLE_KEY = re.compile(r'"table"[ \t\n\r]*:[ \t\n\r]*\[')

# Bytes of matrix text per chunk of the digit scans: a chunk's digit codes,
# digit mask and place sums stay in cache and small beside the int32 table.
_CHUNK_BYTES = 1 << 16


def _digit_chunks(matrix: bytes):
    """(digit, is_digit) for each chunk of a matrix's text: its bytes minus
    ord("0") as uint8, and which of them are digits.  A chunk runs from a "["
    or "," to the next "," about `_CHUNK_BYTES` on, or to the final "]", so
    it starts and ends on a non-digit and no number straddles a cut."""
    codes = np.frombuffer(matrix, dtype=np.uint8)
    first = 0
    while first < len(matrix) - 1:
        last = matrix.find(b",", first + _CHUNK_BYTES)
        if last < 0:
            last = len(matrix) - 1
        digit = np.subtract(codes[first:last + 1], 48, dtype=np.uint8)
        yield digit, digit < 10
        first = last


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
    numbers are read.  They are read by place value from the matrix's digit
    bytes as written, in chunks of about `_CHUNK_BYTES` cut at commas, so no
    number straddles a cut: each is the sum of its last len(str(n - 1))
    digits times powers of ten, written into a preallocated int32 array,
    which `from_json` hands to the group as its table.  A matrix with no
    whitespace is checked as it stands, without the copy that deletes
    whitespace.  The rule that no digit sits outside a slot is checked by
    one `find` per row end, not by a scan of the whole matrix.  Over the
    cap, a number with whitespace inside or a leading zero leaves the
    document to `json.loads`, which rejects it before the cap is checked.
    """
    key = text.find('"table"')
    found = _TABLE_KEY.match(text, key) if key >= 0 and text.isascii() else None
    end = text.rfind("]") + 1
    if found is None or text[end:].strip(" \t\n\r") != "}":
        return None
    start = found.end() - 1
    matrix = text[start:end].encode("ascii")
    spaced = any(c in matrix for c in (b" ", b"\t", b"\n", b"\r"))
    dense = matrix.translate(None, b" \t\n\r") if spaced else matrix
    # With digits deleted, n rows of n slots leave (n + 1)^2 bytes.
    skeleton = dense.translate(None, b"0123456789")
    n = math.isqrt(len(skeleton)) - 1
    if n < 1 or skeleton != b"[" + b",".join([b"[" + b"," * (n - 1) + b"]"] * n) + b"]":
        return None
    # No digit outside a slot: "[[" opens the matrix, each row but the last
    # ends in "],[", and the last in "]]".  The skeleton holds n + 1 "]", so
    # one find per row visits each row's end.
    close = -1
    for _ in range(n - 1):
        close = dense.find(b"]", close + 1)
        if not dense.startswith(b"],[", close):
            return None
    if not (dense.startswith(b"[[") and dense.find(b"]", close + 1) == len(dense) - 2):
        return None
    # One run of digits in each slot.
    if sum(int(np.count_nonzero(is_digit[1:] > is_digit[:-1]))
           for _, is_digit in _digit_chunks(dense)) != n * n:
        return None
    digits = len(dense) - len(skeleton)
    del dense, skeleton  # freed before the numbers are read

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
    if n > cap:
        # json.loads rejects a number with whitespace inside or a leading
        # zero before `from_json_dict` checks the cap, so such a document is
        # left to it; the digits are scanned for both only on this path.
        # More runs than the n * n slots means whitespace inside a number.
        runs = 0
        for digit, is_digit in _digit_chunks(matrix):
            starts = np.flatnonzero(is_digit[1:] > is_digit[:-1]) + 1
            # a chunk ends on a non-digit, so starts + 1 is inside it
            if (is_digit[starts + 1] & (digit[starts] == 0)).any():
                return None
            runs += len(starts)
        if runs != n * n:
            return None
        raise OrderCapError(n, cap)

    # Each run of digits in the text as written is one number, so n * n runs
    # means no whitespace inside one.  A number is read by place value from
    # its last `width` digits, so it has at most `width` digits itself;
    # numbers in [0, n) whose digits add up to the digits written had no
    # leading zero and none was longer than `width`.
    width = len(str(n - 1))
    dtype = np.int16 if width <= 4 else np.int32  # holds any `width` digits
    cells = np.empty(n * n, dtype=np.int32)
    filled = 0
    for digit, is_digit in _digit_chunks(matrix):
        digit *= is_digit  # 0 off the digits
        # value[i] is the number whose last digit is at i, where i ends a run
        value = digit.astype(dtype)
        for k in range(1, width):
            place = np.multiply(digit[:-k], 10**k, dtype=dtype)
            if k > 1:  # digit[i - k] is in i's run only if i - 1, ..., i - k + 1 are digits
                held = is_digit[1:1 - k] if k == 2 else held[1:] & is_digit[1:1 - k]
                place *= held
            value[k:] += place
        ends = np.flatnonzero(is_digit[:-1] > is_digit[1:])
        if filled + len(ends) > n * n:
            return None
        cells[filled:filled + len(ends)] = value[ends]
        filled += len(ends)
    if filled != n * n or cells.max() >= n:
        return None
    if digits != n * n + sum(int(np.count_nonzero(cells >= 10**k)) for k in range(1, width)):
        return None
    data["table"] = cells.reshape(n, n)
    return data


# --- the group itself ---


class _Fresh:
    """A C-contiguous int32 table that a constructor or the JSON read has
    just built and nothing else holds: `_validate_table` checks it in place
    and the group keeps it, where any other table is copied."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table


class FiniteGroup:
    """An immutable finite group given by its multiplication table.

    `_validate_table` checks the table and returns the array the group
    keeps, read-only: a copy of the caller's table, so the caller's array is
    never aliased, or a constructor's own table, passed as `_Fresh`."""

    __slots__ = (
        "name", "identity", "_labels", "_table", "_orders", "_classes", "_inverses",
        "_totients", "_sylow",
    )

    def __init__(
        self,
        table: Union[Sequence[Sequence[int]], np.ndarray],
        identity: int = 0,
        name: str = "G",
        labels: Optional[Sequence[str]] = None,
    ):
        arr, inverses = _validate_table(table, identity)
        arr.flags.writeable = False
        inverses.flags.writeable = False
        self._table = arr
        self._inverses = inverses
        self.identity = int(identity)
        self.name = name
        n = arr.shape[0]
        # a partial of a module-level rule: `labels` calls it when read
        if labels is not None:
            if len(labels) != n:
                raise ValueError("need one label per element")
            self._labels = functools.partial(tuple, tuple(str(s) for s in labels))
        else:
            self._labels = functools.partial(_index_labels, n)
        # _cyclic_classes fills both; see there for (key, powers)
        self._orders: Optional[tuple[int, ...]] = None
        self._classes: Optional[tuple[tuple[int, ...], dict[int, tuple[int, ...]]]] = None
        self._totients: Optional[dict[int, int]] = None
        self._sylow: dict[int, tuple[Subgroup, Subgroup]] = {}  # q -> (P, N(P))

    def __reduce__(self):
        # a pickle is outside input: unpickling validates the table again
        return _with_labels, (self._table, self.identity, self.name, self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        """One name per element, built from the group's label rule when read."""
        return self._labels()

    @property
    def order(self) -> int:
        return self._table.shape[0]

    @property
    def table(self) -> np.ndarray:
        """The validated Cayley table: a read-only n x n int32 array."""
        return self._table

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def _check_index(self, g: int) -> None:
        if not (0 <= g < self.order):
            raise IndexError(f"element index {g} out of range for order {self.order}")

    def inverse(self, g: int) -> int:
        self._check_index(g)
        return int(self._inverses[g])

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
        <g> exactly when gcd(i, m) = 1; those phi(m) positions depend only
        on m, so they are found once per distinct walk length in the pass.
        The pass also fills the element orders: o(h) = |<h>| = |<key[h]>|."""
        if self._classes is None:
            key = [-1] * self.order
            powers = {}
            units = {}  # m -> the list indices i - 1 of the walk with gcd(i, m) = 1
            for g in range(self.order):
                if key[g] < 0:
                    cycle = self.cyclic_subgroup(g)
                    m = len(cycle)
                    positions = units.get(m)
                    if positions is None:
                        positions = units[m] = [i - 1 for i in range(1, m + 1)
                                                if math.gcd(m, i) == 1]
                    for i in positions:
                        key[cycle[i]] = g
                    powers[g] = tuple(sorted(cycle))
            self._orders = tuple(map(len, map(powers.__getitem__, key)))
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
        return sum(map(tot.__getitem__, self.element_orders()))

    def is_cyclic(self) -> bool:
        """True iff some element has order equal to the group order."""
        return self.order in self.element_orders()

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

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        """Elements g with g * sub * g^-1 == sub, found by conjugating sub's
        members, the one generating set known here.  For a Sylow subgroup
        that `sylow_subgroup` returned, this is its stored normalizer."""
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        for p_subgroup, normalizer in self._sylow.values():
            if sub == p_subgroup:
                return normalizer
        return Subgroup(self, np.flatnonzero(self._normalizer_mask(sub.mask, sub.members)))

    def _normalizer_mask(self, inside: np.ndarray, gens: Sequence[int]) -> np.ndarray:
        """Membership mask of N(H), for H given by its membership mask and
        elements `gens` that generate it.  Conjugation by g is an
        automorphism, so g * gens * g^-1 inside H gives g * H * g^-1 inside
        H, and equal orders make them equal: n * len(gens) cells, not n * |H|."""
        t = self._table
        conjugates = t[t[:, gens], self._inverses[:, None]]  # [g, k] = g h_k g^-1
        return inside[conjugates].all(axis=1)

    def is_normal(self, sub: "Subgroup") -> bool:
        return len(self.normalizer(sub)) == self.order

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
            return Subgroup(self, (self.identity,))
        return self._sylow_pair(q)[0]

    def _sylow_pair(self, q: int) -> tuple["Subgroup", "Subgroup"]:
        """(P, N(P)) for the Sylow q-subgroup P; q is a prime dividing the order.

        `gens` holds the seed and each growth element, so it generates the
        current q-subgroup, and each N(H) is found by conjugating those few
        generators rather than every member of H."""
        pair = self._sylow.get(q)
        if pair is not None:
            return pair
        q_part = math.gcd(self.order, q ** self.order.bit_length())  # q^bitlen(n) > n
        orders = np.asarray(self.element_orders())
        q_elements = q_part % orders == 0  # orders divide n, so these are the q-powers
        seed = int(np.argmax(np.where(q_elements, orders, 0)))

        seed_subgroup = self.generated_subgroup([seed])
        inside = seed_subgroup.mask
        gens = [seed]
        size = int(np.count_nonzero(inside))
        normalizer_mask = self._normalizer_mask(inside, gens)
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
            normalizer_mask = self._normalizer_mask(inside, gens)
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
            try:
                _integer(data["order"], "declared order")
            except ValueError as exc:
                raise GroupValidationError(str(exc)) from None
        group = cls(table, identity, name=name)
        if group.order != data.get("order", group.order):
            raise GroupValidationError("declared order does not match the table")
        return group

    @classmethod
    def from_json(cls, text: str, cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        data = _read_square_table(text, cap)
        if data is None:
            data = json.loads(text)
        else:  # the read's own array, within the cap: adopted, not copied
            data["table"] = _Fresh(data["table"])
        return cls.from_json_dict(data, cap)

    @classmethod
    def from_spec(cls, spec: str, cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """The group a spec string names, of order at most `cap`: cyclic:N,
        abelian:D1xD2x..., dihedral:M, dicyclic:M, sym:K, alt:K, sdp:A:B:R
        (C_A twisted by C_B through the unit R), prod:<spec>,<spec>, nested
        to any depth, or file:<path.json>, a document `from_json` reads, of
        at most 16 cap^2 + 2^20 characters.  Every integer is ASCII digits
        with an optional leading minus.  A malformed spec, or one whose
        construction or file fails, raises `SpecError` naming the innermost
        spec at fault; a group over the cap raises `OrderCapError`.  Each
        other kind is built by its `_KINDS` builder.  The right factor of a
        product is built under the cap its left factor leaves, cap // order,
        so a product over the cap never builds a right factor past it.  A
        left factor that meets the cap leaves 0, and its order is then its
        `OrderCapError`'s: a well-formed right factor checked under cap 0
        names its own order, so the error names the product's.  A malformed
        right factor after a left one that met the cap leaves the left's
        error, the order met so far."""
        kind, _, rest = spec.partition(":")
        try:
            if kind == "prod":
                left, right = _split_prod(rest)
                try:
                    first = cls.from_spec(left, cap)
                    order = first.order
                except OrderCapError as exc:
                    first, order = None, exc.order
                try:
                    second = cls.from_spec(right, cap // order)
                except OrderCapError as exc:
                    raise OrderCapError(order * exc.order, cap) from None
                except (ValueError, RecursionError):  # from_spec wraps an OSError
                    if first is None:  # malformed, after the left met the cap
                        raise OrderCapError(order, cap) from None
                    raise
                return direct_product(first, second, cap)
            if kind not in _KINDS:
                raise SpecError(f"unknown group spec kind {kind!r}")
            return _KINDS[kind](rest, cap)
        except (ValueError, OSError, RecursionError) as exc:  # RecursionError: deep nesting
            if isinstance(exc, OrderCapError) or getattr(exc, "spec", None) is not None:
                raise  # over the cap, or a factor's error that names its spec
            raise SpecError(exc, spec) from exc


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

    def __reduce__(self):
        # back through the validating constructor, as the parent is
        return Subgroup, (self.parent, self.members)

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


# --- phi(G) as a function ---


def phi_of_group(group: FiniteGroup) -> int:
    """Sum of phi(order(g)) over the group's elements."""
    return group.phi()


# --- constructions ---


def _with_labels(table, identity: int, name: str, labels: functools.partial) -> FiniteGroup:
    """The validated group of `table` whose labels are labels(), built when
    read; a partial of a module-level function, so the group pickles."""
    group = FiniteGroup(table, identity, name=name)
    group._labels = labels
    return group


def _index_labels(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))


def _pair_labels(*factors: int) -> tuple[str, ...]:
    """Mixed-radix digits, first factor most significant: "(x,y,...)", or
    the bare digit for one factor."""
    labels = [""]
    for d in factors:
        labels = [
            (f"{a},{i}" if a else str(i)) for a in labels for i in range(d)
        ]
    return tuple(f"({s})" if "," in s else s for s in labels)


def _coset_labels(prefixes: tuple[str, str], m: int) -> tuple[str, ...]:
    """Each prefix followed by 0, ..., m - 1: the two cosets of an index-2 subgroup."""
    return tuple(f"{prefix}{r}" for prefix in prefixes for r in range(m))


def _perm_labels(perms: np.ndarray) -> tuple[str, ...]:
    return tuple("".join(map(str, p)) for p in perms.tolist())


def _product_labels(first: functools.partial, second: functools.partial) -> tuple[str, ...]:
    """"(a,b)" for the labels a, b of two factors, each given as its label rule."""
    return tuple(f"({a},{b})" for a in first() for b in second())


def _extension_table(a: int, b: int, r: int, c: int = 0, t_major: bool = True) -> np.ndarray:
    """The int32 table of the n = a*b pairs (u, t) under
    (u1, t1)(u2, t2) = (u1 + r^t1 u2 + c [t1 + t2 >= b] mod a, t1 + t2 mod b),
    with (u, t) at index u + a*t when `t_major` and u*b + t otherwise (the
    same index when a or b is 1).

    The broadcast computes the u-part on the int32 axes (t1, u1, ., u2), or
    (u1, t1, u2, .), with a carry c chosen in by (t1, t2), and the t-part on
    (t1, t2), so only the carry's choice and the final sum are n^2; the sum's
    inner loops run along the last axis, a cells t-major and b cells u-major.
    So a u-major table (or a t-major one with b = 1) with a > b is built from
    its rows (0, t1) instead, the broadcast on n*b cells: a cell there holds
    x*b + s for a u-part x < a and a t-part s < b, and the same cell of row
    (u1, t1) holds ((u1 + x) mod a)*b + s = (u1*b + x*b + s) mod n, one add
    along rows of n cells and one subtraction of n where the sum reaches it.
    No value reaches a^2 + 2a or 2n, inside int32 for any a < 46000 and
    n < 2^30 (such tables would take 8 GiB and more).
    """
    n = a * b
    u = np.arange(a, dtype=np.int32)
    t = np.arange(b, dtype=np.int32)
    r_pow = np.array([pow(r, k, a) for k in range(b)], dtype=np.int32)
    from_first_rows = a > b and (b == 1 or not t_major)
    if from_first_rows:
        (t1, u2, t2), u1 = np.ix_(t, u, t), 0
    elif t_major:
        t1, u1, t2, u2 = np.ix_(t, u, t, u)
    else:
        u1, t1, u2, t2 = np.ix_(u, t, u, t)
    new_u = u1 + r_pow[t1] * u2
    # new_u >= 0 (u, c and the residues in r_pow are), so this is new_u %= a;
    # numpy vectorizes int32 floor division by a scalar but not %, which took
    # 268 us against 30 us for // on a 300 x 300 table (numpy 2.4, 2 cores)
    new_u -= new_u // a * a
    if c:  # where t1 + t2 >= b (t1 + t2 < 2b); new_u + c % a < 2a
        new_u = np.where(t1 + t2 >= b, new_u + c % a, new_u)
        np.subtract(new_u, a, out=new_u, where=new_u >= a)
    new_t = (t1 + t2) % b
    table = new_u + a * new_t if t_major else new_u * b + new_t
    if from_first_rows:  # the rows (0, t1) so far
        table = (u * b)[:, None, None] + table.reshape(b, n)
        np.subtract(table, n, out=table, where=table >= n)
    return table.reshape(n, n)


def cyclic(n: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The cyclic group of order n, written additively on 0..n-1."""
    n = _integer(n, "order")
    if n < 1:
        raise ValueError("order must be positive")
    _check_cap(n, cap)
    return FiniteGroup(_Fresh(_extension_table(n, 1, 1)), 0, name=f"cyclic:{n}")


def _combine_tables(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Componentwise product table on pairs, indexed i1 * n2 + i2.

    Row (i1, i2) is row i1 of t1 times n2, each entry repeated n2 times, plus
    row i2 of t2 tiled n1 times, so the add runs along rows of n1*n2 cells.
    """
    n1, n2 = t1.shape[0], t2.shape[0]
    table = np.repeat(t1 * n2, n2, axis=1)[:, None, :] + np.tile(t2, n1)
    return table.reshape(n1 * n2, n1 * n2)


def abelian(factors: Sequence[int], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product of cyclic groups C_d1 x C_d2 x ... """
    factors = [_integer(d, "factor") for d in factors]
    if not factors or any(d < 1 for d in factors):
        raise ValueError("need positive cyclic factors")
    n = math.prod(factors)
    _check_cap(n, cap)
    table = functools.reduce(_combine_tables, [_extension_table(d, 1, 1) for d in factors])
    name = "abelian:" + "x".join(str(d) for d in factors)
    return _with_labels(_Fresh(table), 0, name, functools.partial(_pair_labels, *factors))


def dihedral(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetries of the regular m-gon, order 2m.

    Element r + m*s is rotation^r * flip^s; flips conjugate rotations to
    their inverses.
    """
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("need m >= 1")
    _check_cap(2 * m, cap)
    return _with_labels(_Fresh(_extension_table(m, 2, -1)), 0, f"dihedral:{m}",
                        functools.partial(_coset_labels, ("r", "sr"), m))


def dicyclic(m: int, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The dicyclic group of order 4m; dicyclic(2) is the quaternion group.

    Presentation a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1; element
    r + 2m*s is a^r * b^s.  Two b's meeting carry m into the exponent of a.
    """
    m = _integer(m, "m")
    if m < 1:
        raise ValueError("need m >= 1")
    _check_cap(4 * m, cap)
    return _with_labels(_Fresh(_extension_table(2 * m, 2, -1, c=m)), 0, f"dicyclic:{m}",
                        functools.partial(_coset_labels, ("a", "ba"), 2 * m))


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
    keys = codes[:, 0].copy()  # p_i * identity = p_i; block 0 overwrites column 0
    for block in np.array_split(codes, -(-n * n // _BLOCK_CELLS)):  # views of whole rows
        block[...] = np.searchsorted(keys, block)  # an intp lookup of one block at a time
    return _with_labels(_Fresh(codes), 0, name, functools.partial(_perm_labels, perms))


def _points(k: int) -> int:
    """k as the point count of a symmetric or alternating group: 1 <= k <= 6."""
    k = _integer(k, "k")
    if not 1 <= k <= 6:
        raise ValueError("supported for 1 <= k <= 6")
    return k


def _all_permutations(k: int) -> np.ndarray:
    """The permutations of k points (1 <= k <= 6) as int8 rows, sorted."""
    return np.array(list(itertools.permutations(range(_points(k)))), dtype=np.int8)


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
    product = _with_labels(_Fresh(table), identity, f"prod:{g1.name},{g2.name}",
                           functools.partial(_product_labels, g1._labels, g2._labels))
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
    return _with_labels(_Fresh(_extension_table(a, b, spec.r, t_major=False)), 0,
                        f"sdp:{a}:{b}:{spec.r}", functools.partial(_pair_labels, a, b))


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


# --- specs and the construction catalog ---


def _ascii_int(text: str) -> int:
    """An integer written as ASCII digits with an optional leading minus.

    `int` also reads non-ASCII digits, surrounding spaces, underscores and
    a plus sign; every integer in a spec or a command line goes through
    here instead, so each of those is a usage error.  So is an integer of
    more digits than Python reads from a string, named by its digit
    count."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise SpecError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than Python reads from a string
        raise SpecError(f"integer of {len(text.lstrip('-'))} digits is too long") from None


def _sdp_values(rest: str) -> tuple[int, int, int]:
    """A, B and R of the spec sdp:A:B:R."""
    parts = rest.split(":")
    if len(parts) != 3:
        raise SpecError("sdp spec needs A:B:R")
    a, b, r = map(_ascii_int, parts)
    return a, b, r


def _read_spec_file(path: str, cap: int) -> str:
    """The text of the file a file: spec names, of at most 16 cap^2 + 2^20
    characters."""
    # a to_json cell (digits below cap, then ", ") is under 16 characters;
    # the MiB is room for the name and the other keys
    limit = min(16 * max(cap, 1) ** 2 + 2**20, sys.maxsize - 1)
    with open(path, "r", encoding="utf-8") as handle:
        # read(limit + 1) would allocate the whole limit for every file;
        # whole pieces of 1 MiB reach past the limit just as surely
        pieces = iter(functools.partial(handle.read, 2**20), "")
        text = "".join(itertools.islice(pieces, limit // 2**20 + 1))
    if len(text) > limit:
        raise ValueError(f"longer than {limit} characters")
    return text


# Each spec kind but prod, as kind: build, where build(rest, cap) is the
# group of the spec kind:rest.  Each entry calls its constructor by its
# module-level name when it runs.
_KINDS = {
    "cyclic": lambda rest, cap: cyclic(_ascii_int(rest), cap),
    "abelian": lambda rest, cap: abelian([_ascii_int(d) for d in rest.split("x")], cap),
    "dihedral": lambda rest, cap: dihedral(_ascii_int(rest), cap),
    "dicyclic": lambda rest, cap: dicyclic(_ascii_int(rest), cap),
    "sym": lambda rest, cap: symmetric(_ascii_int(rest), cap),
    "alt": lambda rest, cap: alternating(_ascii_int(rest), cap),
    "sdp": lambda rest, cap: semidirect_cyclic(SemidirectSpec(*_sdp_values(rest)), cap),
    "file": lambda rest, cap: FiniteGroup.from_json(_read_spec_file(rest, cap), cap),
}


def _split_prod(rest: str) -> tuple[str, str]:
    """The two specs of "prod:" + rest, found by counting its comma-separated
    pieces.  Every piece starts a spec, except that a piece which starts no
    kind continues the path of an open file: spec.  Each leading "prod:" of
    a piece opens one more spec and the spec after them closes one; the left
    spec ends before the first piece that starts a spec once every spec
    opened in it is closed.  A spec of an unknown kind is then left for
    `from_spec` to name."""
    pieces = rest.split(",")
    unclosed, in_file = 1, False
    for i, piece in enumerate(pieces):
        prods = re.match("(?:prod:)*", piece).end()
        opened, kind = prods // len("prod:"), piece[prods:].partition(":")[0]
        if in_file and not opened and kind not in _KINDS:
            continue  # more of the file: path
        if not unclosed:
            return ",".join(pieces[:i]), ",".join(pieces[i:])
        unclosed += opened - 1
        in_file = kind == "file"
    raise SpecError("prod spec needs two comma-separated specs")


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

    Each prime power p^a exactly dividing n is split by a partition of a,
    written as its descending prime powers; one partition per prime gives
    one group, and its i-th invariant factor from the top is the product
    of the i-th parts.  The first entry is always [n] (the cyclic group);
    factors are returned ascending and each divides the next.
    """
    per_prime = [
        [[p**e for e in part] for part in _partitions(a)]
        for p, a in numtheory.factorize(n).factors
    ]
    return [
        sorted(map(math.prod, itertools.zip_longest(*combo, fillvalue=1))) or [1]
        for combo in itertools.product(*per_prime)
    ]


def catalog_specs(n: int, cap: int = DEFAULT_ORDER_CAP) -> list[str]:
    """Specs of the constructible groups of order n, each once; builds no table.

    Covers every abelian group of order n, dihedral and dicyclic groups
    when the order permits, the symmetric and alternating groups on up to
    six points when their order is exactly n, and every cyclic-by-cyclic
    semidirect product over coprime factorizations n = a*b (a, b >= 2).
    The abelian entries come one per choice of a partition of each prime's
    exponent; each split takes a as the product of a proper, nonempty set
    of n's prime powers, in ascending order of a, with every valid action
    r.  This is catalog coverage, not a classification of all groups of
    order n.  The order is checked against `cap` before it is factored.
    """
    n = _integer(n, "order")
    if n < 1:
        raise ValueError("order must be positive")
    _check_cap(n, cap)
    specs = [
        f"cyclic:{n}" if invariant == [n] else "abelian:" + "x".join(map(str, invariant))
        for invariant in abelian_invariant_factor_lists(n)
    ]
    if n % 2 == 0 and n >= 6:
        specs.append(f"dihedral:{n // 2}")
    if n % 4 == 0 and n >= 8:
        specs.append(f"dicyclic:{n // 4}")
    for k in (3, 4, 5, 6):
        if math.factorial(k) == n:
            specs.append(f"sym:{k}")
        if math.factorial(k) // 2 == n:
            specs.append(f"alt:{k}")
    powers = [p**e for p, e in numtheory.factorize(n).factors]
    splits = (
        math.prod(part)
        for size in range(1, len(powers))
        for part in itertools.combinations(powers, size)
    )
    for a in sorted(splits):
        specs += [f"sdp:{a}:{n // a}:{r}" for r in enumerate_semidirect_units(a, n // a)]
    return specs


def catalog(n: int, cap: int = DEFAULT_ORDER_CAP) -> list[FiniteGroup]:
    """The groups of `catalog_specs(n, cap)`, in its order, each built from its spec."""
    return [FiniteGroup.from_spec(spec, cap) for spec in catalog_specs(n, cap)]
