"""Exception types shared across the package.

Every error carries enough context to produce a single-line machine-readable
report on stderr (see cli.py for the exit-code mapping).
"""


class NetoscError(Exception):
    """Base class for all package errors."""

    exit_code = 4

    def payload(self) -> dict:
        return {"error": type(self).__name__, "detail": str(self)}


class InputError(NetoscError):
    """Malformed or illegal input data (exit code 2)."""

    exit_code = 2


class ParseError(InputError):
    def __init__(self, line_no, text):
        super().__init__(f"line {line_no}: cannot parse {text!r}")
        self.line_no = line_no


class DuplicateEdge(InputError):
    def __init__(self, src, dst):
        super().__init__(f"duplicate edge {src}->{dst}")


class SelfLoop(InputError):
    def __init__(self, node):
        super().__init__(f"self-loop at node {node}")


class NonPositiveWeight(InputError):
    def __init__(self, line_no, weight):
        super().__init__(f"line {line_no}: weight {weight} is not a positive finite number")
        self.line_no = line_no


class NotUtf8(InputError):
    def __init__(self, path, exc):
        super().__init__(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


class EmptyGraph(InputError):
    def __init__(self):
        super().__init__("the edge list holds no edges")


class DegreeOverflow(InputError):
    def __init__(self, node):
        super().__init__(
            f"node {node}: the Laplacian's Frobenius norm overflows the float range"
        )


class GraphTooLarge(InputError):
    """A dense n x n stage over graph.DENSE_BYTES (exit code 2)."""


class NumericalFailure(NetoscError):
    """Numerical breakdown: solver non-convergence, overflow (exit code 3)."""

    exit_code = 3


class OutOfMemory(NumericalFailure):
    """A MemoryError: the process ran out of memory (exit code 3)."""


class SqrtUndefined(NumericalFailure):
    def __init__(self, eigenvalue, reason):
        super().__init__(f"square root undefined at eigenvalue {eigenvalue}: {reason}")


class ModelViolation(NetoscError):
    """Request conflicts with a model precondition (exit code 4)."""


class NotSymmetrizable(ModelViolation):
    def __init__(self, reason, edge=None):
        msg = reason if edge is None else f"{reason} at edge {edge[0]}->{edge[1]}"
        super().__init__(msg)
        self.reason = reason
        self.edge = edge


class ZeroDegreeNode(ModelViolation):
    def __init__(self, node):
        super().__init__(
            f"node {node} has zero out-degree; 1/sqrt(d) is undefined "
            "(add a balancing reverse edge or drop sink nodes)"
        )


class DimensionMismatch(ModelViolation):
    pass


class GridMismatch(ModelViolation):
    pass
