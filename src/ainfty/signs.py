"""Koszul signs: every sign rule of the package, defined once.

Convention.  A-infinity operations and Hochschild chains see each factor x
through its shifted degree |x|' = deg x - 1 (see ainf and hochschild); the
dual letters of ncword carry their own degree, 1 - deg y for xi_y and one
more for a marked letter d(xi_y).  Only parities matter.  Every rule takes
degrees or running parities, never the elements, so a caller reads each
factor's degree once.

Moving a graded element a past b costs (-1)^(|a| |b|); applied to any
permutation, this is the reference for the rules below (the tests check
each rule against koszul_sign in tests/signs_oracle.py):

* prefix: an odd operator applied at slot r of (x_0, ..., x_{n-1}) moves
  past x_0 ... x_{r-1} and costs (-1)^(|x_0| + ... + |x_{r-1}|);
  prefix_parities gives these parities for every r at once.
* block: moving a block of total degree p past one of total degree q costs
  (-1)^(p q) (block_sign); rotating a word by a block is one such move.
* rotation: moving the last factor to the front is the block move of that
  factor past the rest, (-1)^(|x_{n-1}| (|x_0| + ... + |x_{n-2}|));
  rotations iterates it around a cyclic word.
* reversal: reading x_0 ... x_{n-1} backwards costs
  (-1)^(sum_{k<l} |x_k| |x_l|) (reversal_sign).
"""

from __future__ import annotations


def parity_sign(parity: int) -> int:
    """(-1)^parity."""
    return -1 if parity % 2 else 1


def prefix_parities(degrees) -> list:
    """[0, d_0, d_0 + d_1, ..., d_0 + ... + d_{n-1}] mod 2: entry r is the
    parity of the prefix sign at slot r."""
    out = [0]
    for d in degrees:
        out.append((out[-1] + d) % 2)
    return out


def block_sign(p: int, q: int) -> int:
    """(-1)^(p q): moving a block of total degree p past one of degree q."""
    return -1 if p % 2 and q % 2 else 1


def rotations(items, degrees):
    """The len(items) rotations of a cyclic word, starting with the word
    itself, each the previous one with its last factor moved to the front.
    Yields (rotation, sign) with items == sign * rotation; each step costs
    O(1) beyond building the tuple."""
    items = tuple(items)
    n = len(items)
    total = sum(degrees)
    sign = 1
    for k in range(n):
        yield items[n - k:] + items[:n - k], sign
        last = degrees[n - 1 - k]
        sign *= block_sign(last, total - last)


def reversal_sign(degrees) -> int:
    """Sign of reading the elements in reverse order: one factor -1 per
    pair of odd elements."""
    odd = sum(d % 2 for d in degrees)
    return parity_sign(odd * (odd - 1) // 2)
