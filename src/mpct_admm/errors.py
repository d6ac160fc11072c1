"""Exception types shared across the solver stack."""


class MpctError(Exception):
    """Base class for every library-specific error."""


class DimensionMismatch(MpctError):
    """Operands do not have conforming shapes."""


class NotPositiveDefinite(MpctError):
    """A Cholesky pivot failed (non-positive or below the pivot floor).

    ``what`` names the offending matrix and ``index`` the failing row within it.
    """

    def __init__(self, what: str, index: int | None = None):
        self.what = what
        self.index = index
        where = "" if index is None else f" (row {index})"
        super().__init__(f"{what} is not positive definite{where}")


class RankDeficientG(MpctError):
    """The stacked dynamics matrix lost full row rank."""


class SingularSmallSystem(MpctError):
    """The m-by-m Woodbury core matrix is singular, i.e. the full system is."""


class SingularKkt(MpctError):
    """The dense saddle-point matrix is singular."""


class EmptyTightenedBox(MpctError):
    """Tightening by epsilon emptied the artificial-reference box."""


class NonFiniteInput(MpctError):
    """An input vector contains NaN or infinity."""


class Infeasible(MpctError):
    """The admissible set of the requested problem is empty."""


class NotConverged(MpctError):
    """An iterative reference solve did not reach its tolerance."""


class SolverFailed(MpctError):
    """A closed-loop step could not be solved; carries the failing step."""

    def __init__(self, step: int, reason: str = ""):
        self.step = step
        msg = f"solver failed at closed-loop step {step}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
