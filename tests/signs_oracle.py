"""Koszul signs written from their definitions, for the tests.

koszul_sign counts the transpositions of odd elements in any permutation;
the tests check every rule of ainfty.signs against it on the move that
rule stands for.  suspension_sign relates the unshifted m_n, which only
the tests build, to the shifted b_n the package stores.
"""

from ainfty.signs import parity_sign


def koszul_sign(degrees, perm) -> int:
    """Sign of rearranging graded elements x_0,...,x_{n-1} into the order
    x_perm[0], x_perm[1], ...

    The sign is the product of (-1)^(d_i * d_j) over every pair transposed
    past each other, i.e. every inversion of perm.  degrees[i] is the degree
    of x_i; only parity matters.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation: %r" % (perm,))
    if len(degrees) != n:
        raise ValueError("degree/permutation length mismatch")
    sign = 1
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b]:
                if (degrees[perm[a]] % 2) and (degrees[perm[b]] % 2):
                    sign = -sign
    return sign


def suspension_sign(degrees) -> int:
    """(-1)^(sum_i (n-i) deg_i) relating m_n and b_n on a tuple with the
    given unshifted degrees (1-based slots, leftmost is outermost)."""
    n = len(degrees)
    return parity_sign(sum((n - i) * d for i, d in enumerate(degrees, start=1)))
