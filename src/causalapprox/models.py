"""Catalog of causal-model variants and their support sets.

Each variant identifies a set of joint distributions over an embedded product
space: the observed variables followed by one interventional copy per
intervention value. Membership of a cell in the support is decided by a
zero-pattern predicate; supports are materialized as dense boolean vectors
because every supported space is small enough for that to be cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .distributions import Shape
from .exceptions import UnsupportedModelError


class ModelVariant(enum.Enum):
    """Stable variant names; the values double as CLI-facing strings."""

    X_TO_Y = "x_to_y"
    Y_TO_X = "y_to_x"
    X_TO_Y_MONO_INC = "x_to_y_mono_inc"
    X_TO_Y_MONO_DEC = "x_to_y_mono_dec"
    Y_TO_X_MONO_INC = "y_to_x_mono_inc"
    Y_TO_X_MONO_DEC = "y_to_x_mono_dec"
    ANM_S1 = "anm_s1"
    ANM_S2 = "anm_s2"
    ANM_S3 = "anm_s3"
    ANM_S4 = "anm_s4"
    Z_CONFOUNDER = "z_confounder"
    Z_CONFOUNDER_HIDDEN = "z_confounder_hidden"
    Z_CHAIN = "z_chain"
    Z_CHAIN_HIDDEN = "z_chain_hidden"
    Z_COLLIDER = "z_collider"
    Z_COLLIDER_HIDDEN = "z_collider_hidden"

    @classmethod
    def from_name(cls, name: str) -> "ModelVariant":
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(v.value for v in cls)
            raise UnsupportedModelError(
                f"unknown model {name!r}; known models: {known}"
            ) from None

    @property
    def is_trivariate(self) -> bool:
        return self.value.startswith("z_")


_BINARY_ONLY = {
    ModelVariant.X_TO_Y_MONO_INC,
    ModelVariant.X_TO_Y_MONO_DEC,
    ModelVariant.Y_TO_X_MONO_INC,
    ModelVariant.Y_TO_X_MONO_DEC,
    ModelVariant.ANM_S1,
    ModelVariant.ANM_S2,
    ModelVariant.ANM_S3,
    ModelVariant.ANM_S4,
}

_ANM_VARIANTS = {
    ModelVariant.ANM_S1: 1,
    ModelVariant.ANM_S2: 2,
    ModelVariant.ANM_S3: 3,
    ModelVariant.ANM_S4: 4,
}

_Y_CAUSE = {
    ModelVariant.Y_TO_X,
    ModelVariant.Y_TO_X_MONO_INC,
    ModelVariant.Y_TO_X_MONO_DEC,
}

_MONO_INC = {ModelVariant.X_TO_Y_MONO_INC, ModelVariant.Y_TO_X_MONO_INC}
_MONO_DEC = {ModelVariant.X_TO_Y_MONO_DEC, ModelVariant.Y_TO_X_MONO_DEC}


@dataclass(frozen=True)
class CausalModelSpec:
    """A model variant plus the range sizes of the involved variables.

    ``b_x`` and ``b_y`` always refer to the data columns x and y; for
    y-cause variants the embedding swaps their roles internally. ``b_z`` is
    required exactly for the trivariate variants.
    """

    variant: ModelVariant
    b_x: int
    b_y: int
    b_z: int | None = None

    def __post_init__(self):
        if self.b_x < 2 or self.b_y < 2:
            raise UnsupportedModelError(
                f"range sizes must be at least 2, got b_x={self.b_x}, b_y={self.b_y}"
            )
        if self.variant in _BINARY_ONLY and (self.b_x != 2 or self.b_y != 2):
            raise UnsupportedModelError(
                f"{self.variant.value} requires b_x = b_y = 2"
            )
        if self.is_trivariate:
            if self.b_z is None:
                raise UnsupportedModelError(
                    f"{self.variant.value} needs b_z"
                )
            if self.b_z < 2:
                raise UnsupportedModelError("b_z must be at least 2")
            if max(self.b_x, self.b_y, self.b_z) > 3:
                raise UnsupportedModelError(
                    "trivariate variants support range sizes up to 3"
                )
        elif self.b_z is not None:
            raise UnsupportedModelError(
                f"{self.variant.value} takes no b_z"
            )

    @property
    def is_trivariate(self) -> bool:
        return self.variant.is_trivariate

    @property
    def anm_objective(self) -> int | None:
        return _ANM_VARIANTS.get(self.variant)

    @classmethod
    def from_name(
        cls, name: str, b_x: int, b_y: int, b_z: int | None = None
    ) -> "CausalModelSpec":
        return cls(ModelVariant.from_name(name), b_x, b_y, b_z)


@dataclass(frozen=True)
class CopySpec:
    """One interventional copy axis of the embedded space.

    ``intervened`` names the variable the intervention fixes, ``value`` the
    value it is fixed to, and ``measures`` the variable whose response the
    copy records.
    """

    axis: int
    intervened: str
    value: int
    measures: str
    size: int


@dataclass(frozen=True)
class ModelSpace:
    """Embedded product space of a model: observed axes then copy axes."""

    shape: Shape
    observed_names: tuple[str, ...]
    copies: tuple[CopySpec, ...]

    @property
    def observed_axes(self) -> tuple[int, ...]:
        return tuple(range(len(self.observed_names)))


@dataclass(frozen=True)
class SupportSet:
    """Dense membership flags of a model's support plus LP objective weights.

    For plain variants the objective coefficients are exactly the 0/1
    indicator of the support; the ANM objectives reweight support cells.
    """

    space: ModelSpace
    member_flags: np.ndarray
    objective_coeffs: np.ndarray

    @property
    def shape(self) -> Shape:
        return self.space.shape

    def member_indices(self) -> np.ndarray:
        return np.flatnonzero(self.member_flags)


def model_space(spec: CausalModelSpec) -> ModelSpace:
    """Axis layout of the embedded space for a model variant."""
    v = spec.variant
    if not spec.is_trivariate:
        if v in _Y_CAUSE:
            b_cause, b_effect = spec.b_y, spec.b_x
            cause, effect = "y", "x"
        else:
            b_cause, b_effect = spec.b_x, spec.b_y
            cause, effect = "x", "y"
        sizes = [b_cause, b_effect] + [b_effect] * b_cause
        copies = tuple(
            CopySpec(axis=2 + a, intervened=cause, value=a, measures=effect,
                     size=b_effect)
            for a in range(b_cause)
        )
        return ModelSpace(Shape(sizes), (cause, effect), copies)

    b_x, b_y, b_z = spec.b_x, spec.b_y, spec.b_z
    observed = ("x", "y") if _is_hidden(v) else ("x", "y", "z")
    sizes = [b_x, b_y] if _is_hidden(v) else [b_x, b_y, b_z]
    copies: list[CopySpec] = []
    base = len(sizes)
    if v in (ModelVariant.Z_CONFOUNDER, ModelVariant.Z_CONFOUNDER_HIDDEN):
        for a in range(b_z):
            copies.append(CopySpec(base + 2 * a, "z", a, "x", b_x))
            copies.append(CopySpec(base + 2 * a + 1, "z", a, "y", b_y))
            sizes.extend([b_x, b_y])
    elif v in (ModelVariant.Z_CHAIN, ModelVariant.Z_CHAIN_HIDDEN):
        for a in range(b_z):
            copies.append(CopySpec(base + a, "z", a, "x", b_x))
            sizes.append(b_x)
        for b in range(b_x):
            copies.append(CopySpec(base + b_z + b, "x", b, "y", b_y))
            sizes.append(b_y)
    else:  # collider
        for a in range(b_z):
            copies.append(CopySpec(base + a, "z", a, "y", b_y))
            sizes.append(b_y)
        for b in range(b_x):
            copies.append(CopySpec(base + b_z + b, "x", b, "y", b_y))
            sizes.append(b_y)
    return ModelSpace(Shape(sizes), observed, tuple(copies))


def _is_hidden(v: ModelVariant) -> bool:
    return v in (
        ModelVariant.Z_CONFOUNDER_HIDDEN,
        ModelVariant.Z_CHAIN_HIDDEN,
        ModelVariant.Z_COLLIDER_HIDDEN,
    )


def _member_flags(spec: CausalModelSpec, space: ModelSpace) -> np.ndarray:
    """Evaluate the variant's zero-pattern predicate on every cell."""
    coords = space.shape.coordinates()
    v = spec.variant

    if not spec.is_trivariate:
        cause = coords[:, 0]
        effect = coords[:, 1]
        # copy recorded at the observed cause value must agree with the effect
        at_cause = np.take_along_axis(
            coords[:, 2:], cause[:, None], axis=1
        ).reshape(-1)
        flags = at_cause == effect
        if v in _MONO_INC:
            flags &= ~((coords[:, 2] == 1) & (coords[:, 3] == 0))
        elif v in _MONO_DEC:
            flags &= ~((coords[:, 2] == 0) & (coords[:, 3] == 1))
        return flags

    # Each structure's predicate reads the copies that one value of z selects;
    # a hidden z must satisfy it at every value it could take.
    x = coords[:, 0]
    y = coords[:, 1]
    cells = np.arange(len(coords))
    base = len(space.observed_names)

    def holds(z):
        first, second = _pair_reads(spec, x, z)
        return _pair_holds(
            v, coords[cells, base + first], coords[cells, base + second], x, y
        )

    if _is_hidden(v):
        return np.logical_and.reduce([holds(a) for a in range(spec.b_z)])
    return holds(coords[:, 2])


def _pair_reads(spec: CausalModelSpec, x, z):
    """The two interventional copies a trivariate predicate reads at (x, z).

    Copies are numbered in axis order, as in ``ModelSpace.copies``. The
    confounder reads the x and y responses to do(z = z); the chain and the
    collider read the response to do(z = z) and the y response to
    do(x = x). Works elementwise on arrays.
    """
    if spec.variant in (ModelVariant.Z_CONFOUNDER,
                        ModelVariant.Z_CONFOUNDER_HIDDEN):
        return 2 * z, 2 * z + 1
    return z, spec.b_z + x


def _pair_holds(variant: ModelVariant, u, v, x, y) -> np.ndarray:
    """Support predicate on the values u, v of the copies :func:`_pair_reads`
    names, at observed x and y.

    Confounder and chain: the first copy agrees with x exactly when the
    second agrees with y. Collider, whose copies both record y: both agree
    with the observed y, or both differ from it and from each other.
    """
    if variant in (ModelVariant.Z_COLLIDER, ModelVariant.Z_COLLIDER_HIDDEN):
        both_agree = (u == y) & (v == y)
        both_differ = (u != y) & (v != y) & (u != v)
        return both_agree | both_differ
    return (u == x) == (v == y)


def build_support(spec: CausalModelSpec) -> SupportSet:
    """Materialize the support set of a model variant.

    For plain variants the objective coefficients equal the membership
    indicator; ANM variants reweight the support cells of one observed pair
    up and of another down.
    """
    space = model_space(spec)
    flags = _member_flags(spec, space)
    coeffs = _objective_from_flags(spec, space, flags)
    return SupportSet(space, flags, coeffs)


def _objective_from_flags(
    spec: CausalModelSpec, space: ModelSpace, flags: np.ndarray
) -> np.ndarray:
    coeffs = flags.astype(float)
    k = spec.anm_objective
    if k is None:
        return coeffs
    # Reweighting that penalizes reversible additive-noise patterns: each
    # objective adds +1/-1 on the support cells of one observed (x, y) pair.
    coords = space.shape.coordinates()
    pair_plus, pair_minus = {
        1: ((0, 0), (1, 1)),
        2: ((1, 1), (0, 0)),
        3: ((0, 1), (1, 0)),
        4: ((1, 0), (0, 1)),
    }[k]
    on = coords[:, 0], coords[:, 1]
    coeffs[flags & (on[0] == pair_plus[0]) & (on[1] == pair_plus[1])] += 1.0
    coeffs[flags & (on[0] == pair_minus[0]) & (on[1] == pair_minus[1])] -= 1.0
    return coeffs
