"""Cyclic words in dual generators, with sign-tracked canonicalization.

The alphabet is an A-infinity category: each basis label y of its hom
spaces, a morphism from src(y) to tgt(y), names a letter xi_y of degree
1 - deg(y), running from tgt(y) to src(y), and its marked variant d(xi_y)
of degree 2 - deg(y).  Functions and differential forms on the formal
neighbourhood are words in these letters.  A term is a configuration: a
tuple of (label, mark) pairs, mark 1 meaning the letter carries a d.
Cyclic classes are stored via a canonical representative, the
lexicographically minimal rotation, with the Koszul sign of the rotation
multiplied into the coefficient.  Configurations fixed by a rotation of
sign -1 are zero and are never stored.
"""

from __future__ import annotations

from .ainf import AInfCategory
from .hochschild import cyclic_chains
from .signs import block_sign, prefix_parities, rotations
from .sparse import add_into


class NCError(Exception):
    pass


def xi_degree(cat: AInfCategory, lab: str) -> int:
    # xi_y is dual to the shift of y
    return 1 - cat.deg(lab)


def slot_degree(cat: AInfCategory, slot) -> int:
    """Degree of a slot (label, mark): a mark adds one."""
    lab, mark = slot
    return 1 - cat.deg(lab) + mark


def cfg_degree(cat: AInfCategory, cfg) -> int:
    return sum(slot_degree(cat, s) for s in cfg)


# xi_y runs against the morphism direction
def xi_src(cat: AInfCategory, lab: str) -> str:
    return cat.tgt(lab)


def xi_tgt(cat: AInfCategory, lab: str) -> str:
    return cat.src(lab)


def word_composable(cat: AInfCategory, labels) -> bool:
    """Operator-order composability: src of each letter = tgt of the next."""
    return all(xi_src(cat, a) == xi_tgt(cat, b)
               for a, b in zip(labels, labels[1:]))


def canonical_cyclic(cat: AInfCategory, cfg):
    """Canonical representative of a cyclic configuration.

    Returns (canonical_cfg, sign) with cfg == sign * canonical_cfg in the
    cyclic quotient, or None when the class is zero (some rotation fixes
    the configuration with sign -1).
    """
    cfg = tuple(cfg)
    if not cfg:
        raise NCError("empty configuration")
    seen = {}
    for cur, sign in rotations(cfg, [slot_degree(cat, s) for s in cfg]):
        if seen.setdefault(cur, sign) != sign:
            return None
    best = min(seen)
    # cfg = seen[best] * best, so coefficient transport multiplies by
    # seen[best] when re-keying onto best.
    return best, seen[best]


def add_cyclic_term(cat: AInfCategory, acc: dict, cfg, coeff) -> None:
    """Accumulate coeff * [cfg] into acc keyed by canonical representatives,
    over the category's field."""
    field = cat.field
    if field.is_zero(coeff):
        return
    canon = canonical_cyclic(cat, cfg)
    if canon is None:
        return
    key, sign = canon
    add_into(field, acc, key, field.mul(coeff, field.of_int(sign)))


def apply_letterwise(cat: AInfCategory, cfg, image_of, mark: int,
                     parity: int):
    """The one splice loop of a graded derivation on one configuration.

    Each letter carrying `mark` goes to image_of(label), a dict
    {replacement cfg: coeff} read in sorted order, spliced into its slot
    with the Koszul prefix sign of the derivation's degree parity; every
    other letter goes to zero.  Returns a list of (coeff, new_cfg); the
    caller canonicalizes.
    """
    out = []
    pre = prefix_parities([slot_degree(cat, slot) for slot in cfg])
    for k, (lab, m) in enumerate(cfg):
        if m != mark:
            continue
        s = block_sign(parity, pre[k])
        for repl, coeff in sorted(image_of(lab).items()):
            out.append((coeff if s == 1 else -coeff, cfg[:k] + repl + cfg[k + 1:]))
    return out


def rotate_mark_last(cat: AInfCategory, cfg):
    """Rotate a 1-mark configuration so the marked slot is last.

    Returns (labels_prefix_cfg, sign) where the marked slot sits at the
    end.  Raises unless exactly one slot is marked.
    """
    marked = [k for k, (_, m) in enumerate(cfg) if m]
    if len(marked) != 1:
        raise NCError("expected exactly one marked slot")
    j = marked[0]
    m = len(cfg)
    if j == m - 1:
        return cfg, 1
    # rotate left by j+1: the block cfg[:j+1] moves behind cfg[j+1:]
    head, tail = cfg[: j + 1], cfg[j + 1:]
    return tail + head, block_sign(cfg_degree(cat, head), cfg_degree(cat, tail))


def enumerate_cyclic_words(cat: AInfCategory, order: int, degree=None):
    """Canonical cyclic configurations (no marks) of a given length.

    A word is a cyclically composable Hochschild chain read backwards.
    Optional filter: total letter degree.  Output sorted; used for linear
    solves over word spaces.
    """
    found = set()
    for chain in cyclic_chains(cat, order):
        cfg = tuple((lab, 0) for lab in reversed(chain))
        if degree is not None and cfg_degree(cat, cfg) != degree:
            continue
        canon = canonical_cyclic(cat, cfg)
        if canon is not None:
            found.add(canon[0])
    return sorted(found)
