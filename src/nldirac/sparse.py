"""Fields by their live entries: the products and sums of an einsum over
a dense field, formed over the entries that are not zero at every point.

A field whose dense layout has the shape ``shape`` + the points' shape,
(4,) * k for a tensor of rank k or (6, 4) for a connection held as its
pairs (see nldirac.geometry), is held as a Live: the indices of its live
entries, each a tuple such as (TH, TH, R), and their values, one row per
entry.  A builder of nldirac.geometry returns the entries its formula
writes, and ``live`` reads them from a dense field with ``live_rows``, so
that an entry nonzero (or NaN, or inf) at some point is live.  Every
consumer takes the entries that exist from the Live it is handed and
skips the others, which would only add zeros.  The fields of the grid
forms and of the identities are mostly zero: 8 of the 16 tetrad entries,
6 and 8 of the 24 pair rows of the two connections, 9 of the 64
Christoffel symbols and 12 of the 64 entries of the mixed tensorial
connection are live.

Each operation gives the floats of the einsum it stands for on an array
of points: a contraction adds the products of each entry from zero in
ascending order of the summed index, as that einsum does, and the dense
field's zero entries only add zeros to a finite sum.  A product of two
entries is rounded as einsum rounds it, so complex values, under a
complex-step partial, give its floats too.  A NaN or an inf at an entry
that is zero on the solutions is live and reaches the result.

The index bookkeeping of an operation, its plan, depends on which entries
are live alone, so each plan is computed once per pattern and kept.  The
flat C-order position of an entry in its layout is read only where a Live
meets a dense field, in ``live`` and ``dense``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Live:
    """A field by its live entries: ``shape`` its dense layout before the
    point axes, ``index`` the indices of its live entries in that layout,
    each a tuple of len(shape) ints, in ascending lexicographic order, and
    ``values`` their values, one row each, the point axes after it (or the
    points flattened to one axis)."""

    shape: tuple
    index: tuple
    values: np.ndarray


def live_rows(field):
    """The rows of a field, shape (n,) + the points' shape, that are
    nonzero (or NaN, or inf) at some point, ascending."""
    return np.reshape(field, (len(field), -1)).any(axis=1).nonzero()[0]


def live(field, shape):
    """The live entries of a field of shape ``shape`` + the points'
    shape, read from the data."""
    shape = tuple(shape)
    flat = np.reshape(field, (math.prod(shape), -1))
    rows = live_rows(flat)
    index = zip(*(i.tolist() for i in np.unravel_index(rows, shape)))
    return Live(shape, tuple(index), flat.take(rows, axis=0))


def flatten(a: Live):
    """The Live ``a`` with its point axes as one, as ``live`` reads them."""
    return Live(a.shape, a.index, np.reshape(a.values, (len(a.index), -1)))


def build(shape, points, dtype, entries):
    """The Live of the entries a formula writes, each (indices, value) of
    the dense layout ``shape``, a value a float or an array that broadcasts
    to the points' shape ``points``, with the dtype ``dtype``.  The
    entries are taken in ascending order of their indices; two entries at
    one index would be two live rows, so there are none."""
    index, order = _build_plan(tuple(indices for indices, _ in entries))
    values = np.empty((len(index),) + tuple(points), dtype=dtype)
    for row, n in enumerate(order):
        values[row] = entries[n][1]
    return Live(tuple(shape), index, values)


def contract(subscripts, a: Live, b: Live):
    """np.einsum(subscripts, a, b) of two fields by their live entries, for
    subscripts such as "ism,sjn->mijn" (the point axes implied) that sum
    one index: the output's live entries, each the sum of its products in
    ascending order of the summed index."""
    out, index, left, right, later = _contraction(subscripts, a.index,
                                                  b.index)
    # einsum rounds a complex product as two real products and a sum; the
    # multiply ufunc may fuse them
    products = np.einsum("...,...->...", a.values.take(left, axis=0),
                         b.values.take(right, axis=0))
    values = products[:len(index)]  # the first product of each entry
    for start, stop, at in later:  # the second products, the third, ...
        values[at] += products[start:stop]
    return Live((4,) * out, index, values)


def signed_sum(*terms):
    """The signed sum of fields (sign, field), sign 1 or -1, the first
    positive, over the union of their live entries, added in the order
    given; an entry live in one field alone takes its value, negated for
    sign -1, as a sum with zeros does."""
    index, rows = _union(tuple(field.index for _, field in terms))
    values = np.zeros((len(index),) + terms[0][1].values.shape[1:],
                      dtype=np.result_type(*(f.values for _, f in terms)))
    values[rows[0]] = terms[0][1].values
    for (sign, field), at in zip(terms[1:], rows[1:]):
        if sign > 0:
            values[at] += field.values
        else:
            values[at] -= field.values
    return Live(terms[0][1].shape, index, values)


def permute(subscripts, a: Live):
    """np.einsum(subscripts, a) for a permutation of the indices, such as
    "mijn->ijmn"."""
    index, order = _permutation(subscripts, a.index)
    return Live(a.shape, index, a.values.take(order, axis=0))


def dense(a: Live, shape):
    """The dense field, shape a.shape + ``shape``, zero off the live
    entries."""
    out = np.zeros((math.prod(a.shape), math.prod(shape)),
                   dtype=a.values.dtype)
    out[_positions(a.shape, a.index)] = np.reshape(a.values,
                                                   (len(a.index), -1))
    return out.reshape(a.shape + shape)


def constant(items, dtype=int):
    """A read-only array of ``items``: every call that finds a plan in its
    cache shares the plan's arrays."""
    out = np.array(items, dtype=dtype)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=256)
def _contraction(subscripts, left, right):
    """The plan of contract: the output's rank, its live entries, the rows
    of the two factors of each product, and for the products after the
    first of an entry, their range and their entries' rows.  The products
    come by rank within their entry, in ascending order of the summed
    index: first the first product of every entry, then every second one,
    and so on."""
    inputs, out = subscripts.split("->")
    sa, sb = inputs.split(",")
    (summed,) = set(sa) & set(sb) - set(out)
    by_summed = {}  # the right factor's entries by the summed index
    for j, indices in enumerate(right):
        db = dict(zip(sb, indices))
        by_summed.setdefault(db[summed], []).append((j, db))
    terms = []
    for i, indices in enumerate(left):
        da = dict(zip(sa, indices))
        for j, db in by_summed.get(da[summed], ()):
            both = {**da, **db}
            terms.append((tuple(both[c] for c in out), da[summed], i, j))
    terms.sort()
    index = tuple(sorted({t[0] for t in terms}))
    row = {k: n for n, k in enumerate(index)}
    by_rank = []  # by_rank[q]: the (q + 1)-th product of each entry
    for n, t in enumerate(terms):
        q = 0 if n == 0 or terms[n - 1][0] != t[0] else q + 1
        if q == len(by_rank):
            by_rank.append([])
        by_rank[q].append(t)
    ordered = [t for rank in by_rank for t in rank]
    later, start = [], len(index)
    for rank in by_rank[1:]:
        later.append((start, start + len(rank),
                      constant([row[t[0]] for t in rank])))
        start += len(rank)
    return (len(out), index, constant([t[2] for t in ordered]),
            constant([t[3] for t in ordered]), tuple(later))


@functools.lru_cache(maxsize=256)
def _build_plan(entries):
    """The plan of build: the indices of the entries, ascending, and the
    position of each among the entries."""
    order = sorted(range(len(entries)), key=entries.__getitem__)
    return tuple(entries[n] for n in order), tuple(order)


@functools.lru_cache(maxsize=256)
def _union(indices):
    """The plan of signed_sum: the union of sets of entries, ascending,
    and the rows of each set in it."""
    index = tuple(sorted(set().union(*indices)))
    row = {k: n for n, k in enumerate(index)}
    return index, tuple(constant([row[k] for k in each])
                        for each in indices)


@functools.lru_cache(maxsize=256)
def _permutation(subscripts, index):
    """The plan of permute: the permuted entries, ascending, and the row
    each one takes."""
    source, out = subscripts.split("->")
    pick = operator.itemgetter(*(source.index(c) for c in out))
    moved = sorted((pick(indices), n) for n, indices in enumerate(index))
    return (tuple(k for k, _ in moved),
            constant([n for _, n in moved]))


@functools.lru_cache(maxsize=256)
def _positions(shape, index):
    """The plan of dense: the flat C-order position of each entry of
    ``index`` in the layout ``shape``."""
    return constant([np.ravel_multi_index(indices, shape)
                     for indices in index])
