"""Exception types shared across the toolkit."""

from __future__ import annotations


class MeandroError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MeandroError):
    """A configuration document failed validation."""


class NotContained(MeandroError):
    """A sampled point of the inner region fell outside the outer region."""

    def __init__(self, witness: complex, message: str | None = None):
        self.witness = witness
        super().__init__(message or f"region containment violated at {witness}")


class MarginViolated(MeandroError):
    """A shrink check measured less clearance than the radius margin demands."""

    def __init__(self, witness: complex, clearance: float, required: float):
        self.witness = witness
        self.clearance = clearance
        self.required = required
        super().__init__(
            f"clearance {clearance:.6g} < required {required:.6g} at {witness}"
        )


class PoleProximity(MeandroError):
    """An evaluation point lies inside a removed disc."""

    def __init__(self, sheet: int, pole: complex):
        self.sheet = sheet
        self.pole = pole
        super().__init__(f"point inside removed disc around {pole} on sheet {sheet}")


class TolUnreachable(MeandroError):
    """Requested tolerance cannot be certified from the available norm bounds."""


class DiophantineRequired(MeandroError):
    """Operation needs a polynomial-decay radius certificate that is absent."""


class NonConvergent(MeandroError):
    """A quadrature or a limit failed to settle on a trustworthy result.

    ``witness`` holds the measured quantities behind the verdict, by name
    (empty when the raiser records none).
    """

    def __init__(self, message: str, **witness):
        self.witness = witness
        super().__init__(message)


class InsufficientData(MeandroError):
    """Not enough usable data points for a fit or diagnostic."""


class OutOfRegime(MeandroError):
    """Input outside the validity regime of the requested formula.

    ``witness`` holds the offending inputs, by name (empty when the raiser
    records none).
    """

    def __init__(self, message: str, **witness):
        self.witness = witness
        super().__init__(message)


class HypothesisViolated(MeandroError):
    """Standing hypotheses of a geometric lemma fail for the given input."""


class ZeroPole(MeandroError):
    """A pole parameter that must be nonzero was zero."""
