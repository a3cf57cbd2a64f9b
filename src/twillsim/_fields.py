"""The readers of every input boundary.

`document` decodes an input file's JSON object, a `reading` block words
its missing and malformed fields, and `text_id` reads an id.  A number
is an int or a float, not a bool, and it is finite.  An integer is an
int, not a bool: 2.0 is refused, not truncated; it also converts to a
finite float, as the engine computes in floats.  A value that breaks
the rule or its bound raises the caller's error type, with the field's
name and the value.
"""

from json import loads
from math import inf, isfinite

_INT = frozenset((int,))
# the least int that float() overflows on: the halfway point between
# the largest float and 2**1024 rounds up, to even
_FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970


def document(text: str, what: str, error: type[Exception], **decode) -> dict:
    """`text`, decoded by `json.loads(text, **decode)`, as an object;
    `text` must be a str: json.loads would also decode bytes."""
    if not isinstance(text, str):
        raise error(f"{what} must be JSON text, not {type(text).__name__}")
    try:
        doc = loads(text, **decode)
    except ValueError as e:  # a JSONDecodeError, or an int over 4300 digits
        raise error(f"{what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


class reading:
    """A `with` block that reads the fields of a `what`: a KeyError,
    TypeError or ValueError in it that is not yet an `error` is raised as
    one naming `what`; with `malformed=False`, only a KeyError, and the
    rest is left to the block around it.  It keeps no state, so one
    serves every entry of a kind."""

    def __init__(self, what: str, error: type[Exception], *,
                 malformed: bool = True):
        self.what, self.error, self.malformed = what, error, malformed

    def __enter__(self):
        return self

    def __exit__(self, kind, e, tb):
        if kind is None or issubclass(kind, self.error):
            return False
        if issubclass(kind, KeyError):
            raise self.error(f"{self.what} missing field {e.args[0]!r}") from None
        if self.malformed and issubclass(kind, (TypeError, ValueError)):
            raise self.error(f"{self.what} has a malformed field: {e}") from None
        return False


def text_id(value, name: str, error: type[Exception]) -> str:
    """`value`, a string that encodes as UTF-8: a lone surrogate, which
    JSON can spell, would fail only as the trace files are written."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string, not {value!r}")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise error(f"{name} must be UTF-8 text, not {value!r}") from None
    return value


def real(value, name: str, error: type[Exception], *, lo: float,
         strict: bool = False) -> float:
    """`value` as a float, at least `lo` (above it when `strict`); -0.0
    is read as 0.0, so that no trace writes a "-0.000000" time."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, not {value!r}")
    try:
        x = float(value) + 0.0  # -0.0 + 0.0 is 0.0; any other x is kept
    except OverflowError:  # an int past any float
        x = inf
    if not (isfinite(x) and (x > lo if strict else x >= lo)):
        raise error(f"{name} must be finite and {'>' if strict else '>='} "
                    f"{lo}, not {value!r}")
    return x


def integer(value, name: str, error: type[Exception], *, lo: int) -> int:
    """`value`, an integer at least `lo` that converts to a finite
    float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, not {value!r}")
    if value < lo:
        raise error(f"{name} must be >= {lo}, not {value!r}")
    if value >= _FLOAT_OVERFLOW:
        raise error(f"{name} must convert to a finite float, not {value!r}")
    return value


def integers(values, name: str, error: type[Exception], *, lo: int,
             length: int | None = None) -> tuple[int, ...]:
    """`values`, a list or tuple of integers at least `lo` that convert
    to finite floats (`length` of them, when given), as a tuple; a
    string or an object, which would iterate as its characters or keys,
    is refused."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{name} must be an array, not {values!r}")
    if length is not None and len(values) != length:
        raise error(f"{name} must be an array of {length} integers, "
                    f"not {values!r}")
    # all plain ints, the common case, is checked in C, not per entry
    if not _INT.issuperset(map(type, values)):
        for v in values:
            integer(v, f"{name} entry", error, lo=lo)
    elif values:
        if min(values) < lo:
            raise error(f"{name} entries must be >= {lo}, not {values!r}")
        if max(values) >= _FLOAT_OVERFLOW:
            raise error(f"{name} entries must convert to a finite float, "
                        f"not {values!r}")
    return tuple(values)
