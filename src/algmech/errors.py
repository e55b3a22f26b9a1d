"""Exception types shared across the package."""

from __future__ import annotations


class AlgmechError(Exception):
    """Base class for all package-specific errors."""


class ParseError(AlgmechError):
    """Malformed expression text.  Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationFault(AlgmechError):
    """Evaluation produced a non-finite result or hit an undefined operation.

    Raised (never silently returned) so that integrators can probe near
    singularities by catching it.
    """


class NonFinite(AlgmechError, ValueError):
    """A coordinate array holds a nan or an infinite entry, given or computed."""


class RankDeficient(AlgmechError):
    """A spanning map lost rank at the probed point."""


class Degenerate(AlgmechError):
    """Restricted Hessian too ill-conditioned for the explicit path."""


class NewtonDivergence(AlgmechError):
    def __init__(self, step_index: int, last_residual: float, t: float, x):
        super().__init__(
            f"Newton failed to converge at step {step_index} "
            f"(last residual {last_residual:.3e}) in the midpoint step from t={t:g} at x={x}"
        )
        self.step_index = step_index
        self.last_residual = last_residual


class HypothesisViolated(AlgmechError):
    def __init__(self, condition: str, point, value: float):
        super().__init__(
            f"hypothesis {condition} violated at {point} (residual {value:.3e})"
        )
        self.condition = condition
        self.point = point
        self.value = value


class FlowBlowUp(AlgmechError):
    """Base-flow integration escaped the admissible region."""


class UnknownModel(AlgmechError):
    pass


class BadParams(AlgmechError):
    pass


class ConfigError(AlgmechError):
    pass
