"""The cyclic quotient of a Hochschild chain window, for the tests.

coker(1 - F) is built through the shared cyclic-word machinery of ncword;
the tests check that it kills 1 - F, that b descends to it and its
dimensions on small windows.
"""

from dataclasses import dataclass

from ainfty.hochschild import HochschildChainWindow, hochschild_b
from ainfty.ncword import canonical_cyclic
from ainfty.sparse import add_into


def _dual_config(tup):
    return tuple((lab, 0) for lab in reversed(tup))


def _config_chain(cfg):
    return tuple(lab for lab, _ in reversed(cfg))


@dataclass
class CyclicQuotient:
    """coker(1 - F) with the induced differential.

    Classes are canonicalized through the shared cyclic-word machinery: a
    chain maps to the dual configuration read backwards, whose rotation
    signs are the F_n signs mod 2.  Chains whose orbit is sign-conflicted
    represent zero and are dropped.
    """
    window: HochschildChainWindow

    def push_tuple(self, tup):
        """Canonical (tuple, sign) for one chain, or None when the class is 0."""
        got = canonical_cyclic(self.window.cat, _dual_config(tup))
        if got is None:
            return None
        cfg, sign = got
        return _config_chain(cfg), sign

    def push(self, chain: dict) -> dict:
        f = self.window.cat.field
        acc = {}
        for tup, coeff in chain.items():
            got = self.push_tuple(tup)
            if got is None:
                continue
            key, sign = got
            add_into(f, acc, key, f.mul(coeff, f.of_int(sign)))
        return acc

    def basis(self, n: int):
        reps = []
        seen = set()
        for tup in self.window.basis(n):
            got = self.push_tuple(tup)
            if got is None:
                continue
            key, _ = got
            if key not in seen:
                seen.add(key)
                reps.append(key)
        return sorted(reps)

    def b(self, chain: dict) -> dict:
        return self.push(hochschild_b(self.window, chain))


def cyclic_quotient(window: HochschildChainWindow) -> CyclicQuotient:
    return CyclicQuotient(window)
