"""Sparse linear algebra over Q and over GF(p): the elimination kernel of
the solver.

A Row is a sparse vector, {index: nonzero value} with the indices
ascending.  _rref reduces rows to their reduced row echelon form, exactly
with p = 0, or mod a prime p, for rows of residues; _reconstruct gives a
nonzero rational congruent to a residue mod p, and _normalize_vector
scales a rational vector to coprime ints.  Every exact entry is an int or
a Fraction, never a float.  express_all_in_span finds coordinates in the
span of given columns, by one exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A constraint row, a pivot row, a solution vector or a template column.
Row = dict[int, Fraction]


def _normalize_vector(vector: Row) -> Row:
    """Scale a Row of int/Fraction entries to coprime ints with the entry
    of the lowest unknown positive, in integer arithmetic only."""
    denoms = lcm(*(v.denominator for v in vector.values()))
    ints = {k: v.numerator * (denoms // v.denominator) for k, v in vector.items()}
    common = gcd(*ints.values())
    if ints and ints[min(ints)] < 0:
        common = -common
    return {k: v // common for k, v in ints.items()}


def _reconstruct(a: int, p: int) -> int | Fraction:
    """A nonzero rational n/d congruent to the residue a, 1 .. p - 1, mod
    the prime p, by the half extended Euclidean algorithm (Wang's rational
    reconstruction): the remainders n = a * d mod p run down until |n| is
    at most isqrt(p // 2).  If some n/d has |n| and d both at most that
    bound, it is unique, as 2 * |n| * d < p, and this is it.  Otherwise the
    result is still congruent to a, but a candidate only: the re-check of
    solver.solve_bider decides whether it stands."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    return r1 if t1 == 1 else Fraction(r1, t1)


def _rref(rows: Iterable[Row], p: int = 0) -> dict[int, Row]:
    """Reduced row echelon form of sparse rows, as pivot-column -> row,
    exact with p = 0, or mod the prime p, for rows of nonzero residues
    mod p.

    Rows are taken one at a time (a generator is fine) and only the pivot
    rows are kept.  Each stored row has coefficient 1 on its pivot column
    and no support on any other pivot column.  ``holders`` maps each
    non-pivot column to the pivots of the stored rows that have it, so a
    new pivot is cleared from exactly those rows.  The RREF is unique, so
    the result does not depend on the order of the rows, only on their
    span.  Exact: int rows stay int as long as every pivot is +-1.  Mod p:
    every update is reduced mod p, each lead is inverted by pow(scale, -1,
    p), and the entries stay residues in 1 .. p - 1.
    """
    pivots: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}
    for row in rows:
        r = dict(row)
        # Pivot rows have no other pivot column, so one pass reduces r.
        for c in [c for c in r if c in pivots]:
            factor = r.pop(c)
            for c2, v2 in pivots[c].items():
                if c2 != c:
                    s = r.get(c2, 0) - factor * v2
                    if p:
                        s %= p
                    if s:
                        r[c2] = s
                    else:
                        del r[c2]
        if not r:
            continue
        lead = min(r)
        scale = r[lead]
        if scale == -1:
            r = {c: -v for c, v in r.items()}
        elif scale != 1:
            if p:
                inv = pow(scale, -1, p)
                r = {c: v * inv % p for c, v in r.items()}
            else:
                # Fraction / (int or Fraction) is exact; int / int would be a float.
                inv = _ONE / scale
                r = {c: v * inv for c, v in r.items()}
        tail = [(c, v) for c, v in r.items() if c != lead]
        for h in holders.pop(lead, ()):
            hrow = pivots[h]
            factor = hrow.pop(lead)
            for c2, v2 in tail:
                s = hrow.get(c2, 0) - factor * v2
                if p:
                    s %= p
                if s:
                    if c2 not in hrow:
                        holders.setdefault(c2, set()).add(h)
                    hrow[c2] = s
                else:
                    del hrow[c2]
                    holders[c2].discard(h)
        for c, _ in tail:
            holders.setdefault(c, set()).add(lead)
        pivots[lead] = r
    return pivots


def express_all_in_span(columns: Sequence[Row],
                        targets: Sequence[Row]) -> list[list[Fraction] | None]:
    """Exact coordinates of each target in the span of columns, or None for
    a target outside it, from one elimination of [columns | targets].

    Columns and targets are Rows over the unknowns.  Their entries are
    scattered into one row per unknown in their support, {column: value},
    and eliminated in ascending unknown order; target t is column n + t,
    right of the n given columns, and each coordinate list runs over the
    columns.  The RREF is unique, and no row reduction among the target
    columns changes a target in the span, so each result is the same as
    an elimination of [columns | target] alone: target t is in the span
    iff no pivot row whose pivot is a target column has a nonzero entry in
    column n + t, and its coordinates are then column n + t of the pivot
    rows of the given columns.  If the columns are linearly dependent,
    free coordinates are set to 0.
    """
    n_cols = len(columns)
    rows: dict[int, Row] = {}
    for j, vector in enumerate([*columns, *targets]):
        for k, value in vector.items():
            rows.setdefault(k, {})[j] = value
    pivots = _rref(rows[k] for k in sorted(rows))
    outside = [prow for pc, prow in pivots.items() if pc >= n_cols]
    results: list[list[Fraction] | None] = []
    for c in range(n_cols, n_cols + len(targets)):
        if any(c in prow for prow in outside):
            results.append(None)
            continue
        coords = [_ZERO] * n_cols
        for pc, prow in pivots.items():
            if pc < n_cols:
                coords[pc] = prow.get(c, _ZERO)
        results.append(coords)
    return results
