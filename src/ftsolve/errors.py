"""Exception hierarchy for the solver toolkit."""


class FtSolveError(Exception):
    """Base class for all toolkit errors."""


class CoincidentPoints(FtSolveError):
    """Two points are too close to define a direction or distance ratio."""


class NonPositiveEdge(FtSolveError):
    """Edge length must be strictly positive."""


class DegenerateTetrahedron(FtSolveError):
    """Vertices are coplanar (or worse) within tolerance."""


class EqualWeights(FtSolveError):
    """The two weight pairs are equal; the quartic degenerates."""


class NoConvergence(FtSolveError):
    """The general solver (a Newton finish with a Weiszfeld fallback) ended,
    on its step tolerance, its step cap or a point it could not leave, with
    the equilibrium residual above its threshold."""


class DegenerateTriangle(FtSolveError):
    """Side lengths do not form a genuine triangle."""


class OutOfDomain(FtSolveError):
    """A formula argument left its valid domain beyond roundoff slack."""


class FloatingViolated(FtSolveError):
    """A construction requires the floating case but produced an absorbed one."""
