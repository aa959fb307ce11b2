"""Structural descriptions of type-I tracial algebras and their invariant.

A description lists, per matrix size m, the trace masses of the atomic
central summands and a diffuse mass, plus a single opaque mass for the
non-type-I remainder.  The invariant rho(m, n) classifies descriptions up
to equivalence, and the tensor calculus realizes the product of two
type-I descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ValidationError, exact


@dataclass(frozen=True)
class TypeIDescription:
    components: tuple  # of (m, sorted atom masses tuple, diffuse mass)
    remainder: Fraction = Fraction(0)

    def __post_init__(self):
        merged = {}
        for m, atoms, diffuse in self.components:
            if isinstance(m, bool) or not isinstance(m, int):
                raise ValidationError(f"matrix size {m!r} is not an integer")
            if m < 1:
                raise ValidationError(f"matrix size {m} must be >= 1")
            atoms = tuple(exact(a, "atom mass", ValidationError) for a in atoms)
            diffuse = exact(diffuse, "diffuse mass", ValidationError)
            if any(a <= 0 for a in atoms):
                raise ValidationError(f"atom masses must be positive (size {m})")
            if diffuse < 0:
                raise ValidationError(f"diffuse mass negative at size {m}")
            old_atoms, old_diffuse = merged.get(m, ((), Fraction(0)))
            merged[m] = (old_atoms + atoms, old_diffuse + diffuse)
        canon = []
        for m in sorted(merged):
            atoms, diffuse = merged[m]
            if not atoms and diffuse == 0:
                continue
            canon.append((m, tuple(sorted(atoms, reverse=True)), diffuse))
        object.__setattr__(self, "components", tuple(canon))
        rem = exact(self.remainder, "remainder mass", ValidationError)
        if rem < 0:
            raise ValidationError("remainder mass negative")
        object.__setattr__(self, "remainder", rem)
        total = self.total_mass()
        if total != 1:
            try:
                message = f"total mass {total} != 1"
            except ValueError:  # more digits than the interpreter writes
                message = "total mass != 1"
            raise ValidationError(message)

    def total_mass(self):
        t = self.remainder
        for _m, atoms, diffuse in self.components:
            t += sum(atoms, Fraction(0)) + diffuse
        return t

    def is_type_one(self):
        return self.remainder == 0


def rho(desc):
    """Canonical table {(m, n): mass}: n = 0 is the diffuse mass at size m,
    n >= 1 the n-th largest atom mass; zero entries are omitted."""
    table = {}
    for m, atoms, diffuse in desc.components:
        if diffuse:
            table[(m, 0)] = diffuse
        for n, a in enumerate(atoms, start=1):
            table[(m, n)] = a
    return table


def equiv(d1, d2):
    return rho(d1) == rho(d2) and d1.remainder == d2.remainder


def tensor(d1, d2):
    """Product description of two type-I descriptions.

    Sizes multiply; atom masses multiply and stay atomic; any factor with
    a diffuse part contributes diffuse product mass.
    """
    for d in (d1, d2):
        if not d.is_type_one():
            raise InputError("tensor requires type-I descriptions (remainder 0)")
    atoms = {}
    diffuse = {}
    for m1, atoms1, diff1 in d1.components:
        for m2, atoms2, diff2 in d2.components:
            m = m1 * m2
            for a1 in atoms1:
                for a2 in atoms2:
                    atoms.setdefault(m, []).append(a1 * a2)
            mixed = diff1 * (sum(atoms2, Fraction(0)) + diff2)
            mixed += diff2 * sum(atoms1, Fraction(0))
            if mixed:
                diffuse[m] = diffuse.get(m, Fraction(0)) + mixed
    components = []
    for m in sorted(set(atoms) | set(diffuse)):
        components.append((m, tuple(atoms.get(m, ())), diffuse.get(m, Fraction(0))))
    return TypeIDescription(tuple(components))


def matrix_point_mass(j):
    """The description of a single size-j matrix factor with full mass."""
    return TypeIDescription(((j, (Fraction(1),), Fraction(0)),))


def matrix_tensor(desc, j):
    """Tensor with a size-j matrix factor: sizes multiply by j, masses kept."""
    if isinstance(j, bool) or not isinstance(j, int):
        raise InputError(f"matrix size {j!r} is not an integer")
    if j < 1:
        raise InputError(f"matrix size {j} must be >= 1")
    return tensor(desc, matrix_point_mass(j))
