"""The number readers of every input boundary.

A number is an int or a float, not a bool, and it is finite.  An
integer is an int, not a bool: 2.0 is refused, not truncated.  A value
that breaks the rule or its bound raises the caller's error type, with
the field's name and the value.
"""

from math import inf, isfinite

_INT = frozenset((int,))


def real(value, name: str, error: type[Exception], *, lo: float,
         strict: bool = False) -> float:
    """`value` as a float, at least `lo` (above it when `strict`)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past any float
        x = inf
    if not (isfinite(x) and (x > lo if strict else x >= lo)):
        raise error(f"{name} must be finite and {'>' if strict else '>='} "
                    f"{lo}, not {value!r}")
    return x


def integer(value, name: str, error: type[Exception], *, lo: int) -> int:
    """`value`, an integer at least `lo`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, not {value!r}")
    if value < lo:
        raise error(f"{name} must be >= {lo}, not {value!r}")
    return value


def integers(values, name: str, error: type[Exception], *, lo: int,
             length: int | None = None) -> tuple[int, ...]:
    """`values`, a list or tuple of integers at least `lo` (`length` of
    them, when given), as a tuple; a string or an object, which would
    iterate as its characters or keys, is refused."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{name} must be an array, not {values!r}")
    if length is not None and len(values) != length:
        raise error(f"{name} must be an array of {length} integers, "
                    f"not {values!r}")
    # all plain ints, the common case, is checked in C, not per entry
    if not _INT.issuperset(map(type, values)):
        for v in values:
            integer(v, f"{name} entry", error, lo=lo)
    elif values and min(values) < lo:
        raise error(f"{name} entries must be >= {lo}, not {values!r}")
    return tuple(values)
