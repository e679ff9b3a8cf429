"""Exception types shared across the package."""


class InfodistError(Exception):
    """Base class for all package-specific errors."""


class NetworkFormatError(InfodistError):
    """Malformed JSON input (network, instance, witness, code or scheme);
    ``field`` names the offending entry."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def json_key(data: dict, key: str):
    """data[key], or a format error naming the missing key."""
    try:
        return data[key]
    except KeyError:
        raise NetworkFormatError(f"missing key {key!r}", field=key) from None


def json_list(value, field: str):
    """value itself if it is a JSON list (or a tuple), else a format error."""
    if isinstance(value, (list, tuple)):
        return value
    raise NetworkFormatError(f"{field} must be a list, got {type(value).__name__}",
                             field=field)


def json_object(value, field: str) -> dict:
    """value itself if it is a JSON object, else a format error."""
    if isinstance(value, dict):
        return value
    raise NetworkFormatError(f"{field} must be an object, got {type(value).__name__}",
                             field=field)


def json_int(value, field: str) -> int:
    """int(value), or a format error naming field.

    A JSON integer or a string of digits is read as itself; true, false and
    a number with a fractional part (or an infinite one) are errors, where
    int() would silently truncate them.
    """
    if not isinstance(value, bool) and not (isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise NetworkFormatError(f"{field} {value!r} is not an integer", field=field)


class CycleDetected(NetworkFormatError):
    """The graph is not acyclic; carries one edge of a cycle."""

    def __init__(self, edge):
        super().__init__(f"graph contains a cycle through edge {edge}", field="edges")
        self.edge = edge


class DuplicateEdge(NetworkFormatError):
    def __init__(self, edge):
        super().__init__(f"duplicate edge triple {edge}", field="edges")
        self.edge = edge


class SourceHasInEdge(NetworkFormatError):
    def __init__(self, session, node):
        super().__init__(
            f"source {node!r} of session {session} has incoming edges", field="sessions"
        )
        self.session = session


class SinkHasOutEdge(NetworkFormatError):
    def __init__(self, session, node):
        super().__init__(
            f"sink {node!r} of session {session} has outgoing edges", field="sessions"
        )
        self.session = session


class PermutationMismatch(InfodistError):
    """A permutation sequence does not order exactly the cut-set sequence."""


class BijectionViolated(InfodistError):
    """A path misses its session cut-set or crosses it more than once, or
    (path None, message given) the session's path count is not its
    cut-set's size."""

    def __init__(self, session, path, crossed, message=None):
        super().__init__(message or (
            f"path {path} of session {session} crosses its cut-set in {sorted(crossed)}"
        ))
        self.session = session
        self.path = path
        self.crossed = crossed


class NotExtendable(InfodistError):
    """Representatives were requested for a non-extendable path-set sequence."""


class PathEnumerationTruncated(InfodistError):
    """Path enumeration hit its cap; dependent results are indeterminate."""

    def __init__(self, u, v, limit):
        super().__init__(f"more than {limit} simple paths from {u!r} to {v!r}")
        self.limit = limit


class MissingEncoder(InfodistError):
    def __init__(self, edge):
        super().__init__(f"no local encoder given for edge {edge}")
        self.edge = edge


class FieldTooSmall(InfodistError):
    pass


class WitnessInvalid(InfodistError):
    """A witness failed re-verification against its network."""


class CertificateInvalid(InfodistError):
    """An LP answer failed its exact re-check outside the solver."""


class UnknownPath(InfodistError):
    """A routing scheme keys a path that is not a valid session path."""

    def __init__(self, session, path):
        super().__init__(f"path {path} is not a valid path for session {session}")
        self.session = session
        self.path = path


class NotACutset(InfodistError):
    pass


class DeadlineTooSmall(InfodistError):
    def __init__(self, tau, best):  # best is None when no source-sink path exists
        super().__init__("the sink is not reachable from the source" if best is None
                         else f"deadline {tau} below the fastest source-sink delay ({best})")
        self.tau = tau
        self.best = best
