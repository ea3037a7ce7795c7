"""The rival prediction rules (qm, causal, rnl; README states each rule and
its domain), each computed as one :class:`Law` record of arrays on a phase
grid through the amplitude tables, except the causal rules' side-1 split, the
constant 1/2.  ``tests/closed_forms.py`` writes out the cosine closed forms as
a second, independent route.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import NamedTuple, Sequence

import numpy as np

from .amplitudes import (
    CLASS_ROWS,
    SEQUENTIAL_GROUPS,
    PhaseSettings,
    interference_law,
    joint_amplitudes,
    single_amplitudes,
)
from .pathspace import OUTCOMES, Subensemble, TimeOrdering

_PROBABILITY_TOL = 1e-9


def _check_rows(p: np.ndarray, name: str) -> None:
    """Every entry of ``p`` lies in [0, 1] and every row sums to 1, within the tolerance."""
    inside = (p >= -_PROBABILITY_TOL) & (p <= 1.0 + _PROBABILITY_TOL)
    if not inside.all():
        raise ValueError(f"probability {p[~inside][0]} outside [0, 1]")
    if (np.abs(p.sum(axis=1) - 1.0) > _PROBABILITY_TOL).any():
        raise ValueError(f"{name} probabilities must sum to 1")


class Law(NamedTuple):
    """A model's analytic law on a phase grid; row ``k`` belongs to grid point ``k``.

    ``joint`` has shape ``(points, 4)``, its columns in ``OUTCOMES`` order;
    ``side1`` and ``side2`` have shape ``(points, 2)``, their columns the
    side's ``+`` and ``-`` detectors.  A field the model leaves undefined is
    None.  ``target`` is the arrival-time class the law is predicted for, the
    class whose events a sampler of the law accepts.
    """

    joint: np.ndarray | None
    side1: np.ndarray | None
    side2: np.ndarray | None
    target: Subensemble

    def validated(self) -> Law:
        """This law, once its class, its shapes and every row are checked.

        Raises ``ValueError`` for a ``target`` that is not a :class:`Subensemble`,
        no defined field, fields not 2-D or not of one row count, a joint law not
        four outcomes wide or singles not two wide, an entry outside [0, 1], a
        row that does not sum to 1, or a side that is not the joint's marginal.
        """
        if not isinstance(self.target, Subensemble):
            raise ValueError(f"law target {self.target!r} is not an arrival-time class")
        defined = [field for field in self[:3] if field is not None]
        if not defined:
            raise ValueError("a law must define a joint law or a side's singles")
        if any(field.ndim != 2 for field in defined) or len(set(map(len, defined))) > 1:
            raise ValueError("a law's fields must be 2-D and share one row count")
        if self.joint is not None:
            if self.joint.shape[1] != len(OUTCOMES):
                raise ValueError("joint distribution must cover the four outcomes")
            _check_rows(self.joint, "joint")
        for side in (self.side1, self.side2):
            if side is not None:
                if side.shape[1] != 2:
                    raise ValueError("singles must cover the + and - detectors")
                _check_rows(side, "singles")
        if self.joint is not None:
            for side, marginal in zip((self.side1, self.side2), marginals(self.joint)):
                if side is not None and (np.abs(side - marginal) > _PROBABILITY_TOL).any():
                    raise ValueError("each side's singles must be the joint law's marginal")
        return self


@unique
class TheoryKind(Enum):
    QM = "qm"
    CAUSAL = "causal"
    RNL = "rnl"


class TheoryModel(NamedTuple):
    """A prediction rule together with the time ordering it is applied to."""

    kind: TheoryKind
    ordering: TimeOrdering = TimeOrdering.SPACELIKE


def marginals(weights, total: float = 1) -> tuple[np.ndarray, np.ndarray]:
    """Side-1 and side-2 singles of ``OUTCOMES``-ordered weights.

    ``weights`` holds the four outcomes on its last axis: a law grid of shape
    ``(points, 4)``, or a block's ``r``.  Each side comes back with the
    outcomes axis replaced by its ``(+, -)`` pair, and its sums divided by
    ``total``: 1 for a joint law, the accepted count for a block's ``r``.
    """
    weights = np.asarray(weights)
    # axis -2 is side 1's sign and axis -1 side 2's, as OUTCOMES orders them
    signs = weights.reshape(weights.shape[:-1] + (2, 2))
    return (
        (signs[..., 0] + signs[..., 1]) / total,
        (signs[..., 0, :] + signs[..., 1, :]) / total,
    )


def predict(
    model: TheoryModel, phases: Sequence[PhaseSettings], target: Subensemble = Subensemble.LONG
) -> Law:
    """The validated :class:`Law` of ``model`` on the grid ``phases`` for the
    ``target`` arrival-time class: QM's joint law and both marginals, the
    causal rule's first-impacting photon's singles, RNL's two singles.

    A call outside the rule's domain is a ``ValueError``, raised before any
    table is evaluated: QM needs a central class, the causal rule time
    ordering 1 or 2, and the causal rules the difference-L class.  The grid is
    checked as :func:`~impactseries.amplitudes.evaluate` checks it.
    """
    if model.kind is TheoryKind.CAUSAL and model.ordering is TimeOrdering.SPACELIKE:
        raise ValueError("causal predictions are defined only for time orderings 1 and 2")
    if model.kind is TheoryKind.QM:
        if target not in CLASS_ROWS:
            raise ValueError(f"no amplitude table for satellite class {target.value}")
        joint = interference_law(joint_amplitudes(phases), (CLASS_ROWS[target],))
        law = Law(joint, *marginals(joint), target)
    elif target is not Subensemble.LONG:
        raise ValueError(
            f"the {model.kind.value} rule is defined for the difference-L class only, "
            f"not {target.value}"
        )
    else:
        # the causal rule defines only the first-impacting photon's singles; RNL
        # applies the causal rules to both photons under any time ordering
        first = model.ordering if model.kind is TheoryKind.CAUSAL else None
        # photon 2 impacting first: Ll and lL stay indistinguishable and
        # interfere, while LL is distinguishable at impact time
        side2 = interference_law(single_amplitudes(phases), SEQUENTIAL_GROUPS)
        # photon 1 impacting first: the arm it took remains knowable, so its
        # alternatives add as probabilities and split evenly at every phase
        side1 = None if first is TimeOrdering.PHOTON2_FIRST else np.full_like(side2, 0.5)
        law = Law(None, side1, None if first is TimeOrdering.PHOTON1_FIRST else side2, target)
    return law.validated()
