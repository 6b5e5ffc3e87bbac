"""Cyclic words in dual generators, with sign-tracked canonicalization.

Functions and differential forms on the formal neighbourhood live in the
tensor category generated by letters xi_y (one per basis morphism y, degree
1 - |y|) and their marked variants d(xi_y) (degree 2 - |y|).  A term is a
configuration: a tuple of (label, mark) pairs, mark 1 meaning the letter
carries a d.  Cyclic classes are stored via a canonical representative, the
lexicographically minimal rotation, with the Koszul sign of the rotation
multiplied into the coefficient.  Configurations fixed by a rotation of
sign -1 are zero and are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import FieldCtx, QQ
from .signs import block_sign, prefix_parities, rotations
from .sparse import add_into


class NCError(Exception):
    pass


@dataclass(frozen=True)
class Letter:
    src: str          # source object of the underlying morphism y
    tgt: str
    primal_degree: int
    is_unit: bool = False

    @property
    def degree(self) -> int:
        # xi_y is dual to the shift of y
        return 1 - self.primal_degree


@dataclass
class NCContext:
    """Letter alphabet extracted from a category's hom bases."""

    field: FieldCtx = QQ
    letters: dict = dc_field(default_factory=dict)   # label -> Letter

    @classmethod
    def from_category(cls, cat) -> "NCContext":
        unit_labels = set(cat.units.values())
        letters = {}
        for (i, j), basis in sorted(cat.hom.items()):
            for lab, deg in basis:
                if lab in letters:
                    raise NCError("duplicate letter label %r" % (lab,))
                letters[lab] = Letter(i, j, deg, lab in unit_labels)
        return cls(field=cat.field, letters=letters)

    def letter(self, lab: str) -> Letter:
        try:
            return self.letters[lab]
        except KeyError:
            raise NCError("unknown letter %r" % (lab,))

    def degree(self, lab: str) -> int:
        return self.letter(lab).degree

    def eff_degree(self, slot) -> int:
        lab, mark = slot
        return self.letter(lab).degree + mark

    def cfg_degree(self, cfg) -> int:
        return sum(self.eff_degree(s) for s in cfg)

    def unit_labels(self):
        return {lab for lab, l in self.letters.items() if l.is_unit}

    # xi_y runs against the morphism direction
    def xi_src(self, lab: str) -> str:
        return self.letter(lab).tgt

    def xi_tgt(self, lab: str) -> str:
        return self.letter(lab).src


def word_composable(ctx: NCContext, labels, closed: bool) -> bool:
    """Operator-order composability: src of each letter = tgt of the next."""
    if not labels:
        return True
    for k in range(len(labels) - 1):
        if ctx.xi_src(labels[k]) != ctx.xi_tgt(labels[k + 1]):
            return False
    if closed:
        return ctx.xi_src(labels[-1]) == ctx.xi_tgt(labels[0])
    return True


def canonical_cyclic(ctx: NCContext, cfg):
    """Canonical representative of a cyclic configuration.

    Returns (canonical_cfg, sign) with cfg == sign * canonical_cfg in the
    cyclic quotient, or None when the class is zero (some rotation fixes
    the configuration with sign -1).
    """
    cfg = tuple(cfg)
    if not cfg:
        raise NCError("empty configuration")
    seen = {}
    for cur, sign in rotations(cfg, [ctx.eff_degree(s) for s in cfg]):
        if seen.setdefault(cur, sign) != sign:
            return None
    best = min(seen)
    # cfg = seen[best] * best, so coefficient transport multiplies by
    # seen[best] when re-keying onto best.
    return best, seen[best]


def add_cyclic_term(ctx: NCContext, field: FieldCtx, acc: dict, cfg, coeff) -> None:
    """Accumulate coeff * [cfg] into acc keyed by canonical representatives."""
    if field.is_zero(coeff):
        return
    canon = canonical_cyclic(ctx, cfg)
    if canon is None:
        return
    key, sign = canon
    add_into(field, acc, key, field.mul(coeff, field.of_int(sign)))


def apply_letterwise(ctx: NCContext, cfg, image_of, mark: int, parity: int):
    """The one splice loop of a graded derivation on one configuration.

    Each letter carrying `mark` goes to image_of(label), a dict
    {replacement cfg: coeff} read in sorted order, spliced into its slot
    with the Koszul prefix sign of the derivation's degree parity; every
    other letter goes to zero.  Returns a list of (coeff, new_cfg); the
    caller canonicalizes.
    """
    out = []
    pre = prefix_parities([ctx.eff_degree(slot) for slot in cfg])
    for k, (lab, m) in enumerate(cfg):
        if m != mark:
            continue
        s = block_sign(parity, pre[k])
        for repl, coeff in sorted(image_of(lab).items()):
            out.append((coeff if s == 1 else -coeff, cfg[:k] + repl + cfg[k + 1:]))
    return out


def rotate_mark_last(ctx: NCContext, cfg):
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
    return tail + head, block_sign(ctx.cfg_degree(head), ctx.cfg_degree(tail))


def enumerate_cyclic_words(ctx: NCContext, order: int, degree=None):
    """Canonical cyclic configurations (no marks) of a given length.

    Optional filter: total letter degree.  Output sorted; used for linear
    solves over word spaces.
    """
    labels = sorted(ctx.letters)
    found = set()
    stack = [()]
    while stack:
        word = stack.pop()
        if len(word) < order:
            stack.extend(word + (lab,) for lab in labels
                         if not word or ctx.xi_src(word[-1]) == ctx.xi_tgt(lab))
            continue
        if ctx.xi_src(word[-1]) != ctx.xi_tgt(word[0]):
            continue
        cfg = tuple((lab, 0) for lab in word)
        if degree is not None and ctx.cfg_degree(cfg) != degree:
            continue
        canon = canonical_cyclic(ctx, cfg)
        if canon is not None:
            found.add(canon[0])
    return sorted(found)
