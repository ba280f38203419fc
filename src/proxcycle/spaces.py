"""Points, norms, and metric evaluation.

Points are plain tuples of floats. A space is either an l^q norm on R^N or a
user-supplied two-point metric oracle; both read an outside point with
``point(v)`` and expose ``distance(a, b)``. All values are immutable and
every operation is pure.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial
from operator import countOf, le, lt, mul, sub, truediv
from typing import Callable, Iterable, Sequence

Point = tuple[float, ...]


class CapabilityError(TypeError):
    """A region or space does not support the requested exact computation."""


def _bind(names: tuple[str, ...], defaults: dict[str, object], args: tuple, kwargs: dict) -> list:
    """The values of the parameters ``names``, in order, bound from
    ``args`` and ``kwargs`` with gaps filled from ``defaults``, as
    ``inspect.Signature.bind`` binds positional-or-keyword parameters: a bad
    call raises its TypeError messages, in its order."""
    for name in names[: len(args)]:
        if name in kwargs:
            raise TypeError(f"multiple values for argument {name!r}")
    if len(args) > len(names):
        raise TypeError("too many positional arguments")
    given = {**defaults, **dict(zip(names, args)), **kwargs}
    for name in names:
        if name not in given:
            raise TypeError(f"missing a required argument: {name!r}")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"got an unexpected keyword argument {name!r}")
    return [given[name] for name in names]


class _Record:
    """An immutable value record without generated code.

    A subclass names its fields, in order, in ``_fields``, gives the
    defaults of those that have one in ``_defaults``, and lists them (and
    any derived attributes) in ``__slots__``. A subclass whose constructor
    only stores its fields needs no ``__init__``: the shared one binds its
    arguments to ``_fields`` with ``_bind``. One that reads, checks or
    derives names its ``__init__`` parameters, in order, in ``_fields`` and
    sets them once with ``_set`` (derived attributes with ``_derive``).
    Records are equal when they are of the same class with equal fields,
    hash by their fields, show them in a dataclass-style ``repr``, refuse
    assignment and deletion, pickle by calling the class with their fields
    again, and give ``copy.replace`` a copy with some fields changed.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, /, *args: object, **kwargs: object) -> None:
        self._set(*_bind(self._fields, self._defaults, args, kwargs))

    def _set(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __replace__(self, **changes: object) -> _Record:
        """A copy with ``changes`` to some fields, built through ``__init__``;
        ``copy.replace`` calls it on Python 3.13 and later."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def _derive(self, **attributes: object) -> None:
        """Set attributes derived from the fields, once, in ``__init__``."""
        for name, value in attributes.items():
            object.__setattr__(self, name, value)


class _DataclassFields:
    """A class's ``__dataclass_fields__``, built on first use.

    ``dataclasses.replace``, ``fields``, ``asdict`` and ``is_dataclass``
    find a dataclass by this attribute. A record class that they must keep
    accepting sets it to ``_DATACLASS_FIELDS``; the first access imports
    ``dataclasses``, makes the fields of a dataclass with the record's
    ``_fields``, and keeps them on the class in place of this descriptor, so
    that an import that never asks pays for neither.
    """

    def __get__(self, obj: object, cls: type) -> dict:
        import dataclasses

        fields = dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        setattr(cls, "__dataclass_fields__", fields)
        return fields


_DATACLASS_FIELDS = _DataclassFields()


def _power_sum(power: float, inv: float, vals: Sequence[float]) -> float:
    """(sum v_i^q)^(1/q) with the largest value factored out, so large
    exponents cannot overflow on large inputs; ``power`` is q (an int when q
    is integral) and ``inv`` is 1/q. An infinite peak (an overflowed
    distance) gives inf, where the scaling would divide inf by inf."""
    peak = max(vals, default=0.0)
    if peak == 0.0:
        return 0.0
    if peak == math.inf:
        return peak
    return peak * math.fsum([(v / peak) ** power for v in vals]) ** inv


def _power_sum_columns(power: float, inv: float, cols: Sequence[Sequence[float]]) -> list[float]:
    """``_power_sum`` of every row of ``cols``, one C-level map per step.

    Each row gets the same operations in the same order as ``_power_sum``:
    its peak, each term ``(v / peak) ** power`` in column order, ``fsum``,
    ``** inv`` and ``* peak``. A zero peak would divide by zero and an
    infinite one give inf / inf, so those rows divide by inf instead, which
    raises nothing, and then take ``_power_sum``'s answer for them: 0.0 and
    inf.
    """
    peaks = list(map(max, *cols))
    special = 0.0 in peaks or math.inf in peaks
    scales = [math.inf if pk == 0.0 else pk for pk in peaks] if special else peaks
    terms = [map(pow, map(truediv, col, scales), itertools.repeat(power)) for col in cols]
    sums = map(math.fsum, zip(*terms))
    out = list(map(mul, scales, map(pow, sums, itertools.repeat(inv))))
    if special:
        for j, pk in enumerate(peaks):
            if pk == 0.0 or pk == math.inf:
                out[j] = 0.0 if pk == 0.0 else pk
    return out


def _sum_or_inf(vals: Sequence[float]) -> float:
    """``math.fsum`` of nonnegative values, with a sum past the float range
    giving inf instead of fsum's OverflowError. fsum can also trip on an
    intermediate partial when the exact sum sits just below the overflow
    threshold, so that case rounds the exact rational sum instead."""
    try:
        return math.fsum(vals)
    except OverflowError:
        pass
    # Imported here: fractions adds milliseconds to every start-up, and only
    # an overflowing sum needs it.
    from fractions import Fraction

    try:
        return float(sum(map(Fraction, vals)))
    except OverflowError:
        return math.inf


def _sum_columns(cols: Sequence[Sequence[float]]) -> list[float]:
    """``_sum_or_inf`` of every row of ``cols``: ``math.fsum`` per row,
    and the rows once more through ``_sum_or_inf`` if one overflows."""
    try:
        return list(map(math.fsum, zip(*cols)))
    except OverflowError:
        return list(map(_sum_or_inf, zip(*cols)))


def _max_columns(cols: Sequence[Sequence[float]]) -> list[float]:
    """The max of every row of ``cols``; ``max`` of the m values of a row
    compares them as ``max`` of their list does."""
    return list(map(max, *cols))


class Exponent(_Record):
    """An exponent in [1, inf]. ``value is None`` is the infinity tag.

    Infinity is a distinct tag rather than a float so that no code path ever
    evaluates ``sum(|v|**q) ** (1/q)`` with a huge q.

    ``_combine(vals)`` is the p-combination of a list or tuple of
    nonnegative floats for this exponent, chosen once here: the max for inf,
    ``math.fsum`` for 1 (inf when the sum overflows), the peak-scaled power
    sum otherwise. ``_combine_columns(cols)`` takes two or more columns of
    equal length and returns ``[_combine(row) for row in zip(*cols)]``, bit
    for bit, with the per-value work done by C-level maps over whole
    columns.
    For finite q, ``_power`` is the power the sum raises to (an int when q is
    integral) and ``_inv`` is 1/q; both are None for inf.
    """

    __slots__ = ("value", "_combine", "_combine_columns", "_power", "_inv")
    _fields = ("value",)
    __dataclass_fields__ = _DATACLASS_FIELDS

    def __init__(self, value: float | None = None) -> None:
        if value is None:
            self._set(None)
            combine = partial(max, default=0.0)
            self._derive(_combine=combine, _combine_columns=_max_columns, _power=None, _inv=None)
            return
        v = _number("exponent", value)
        if not v >= 1.0:  # NaN too: it compares false
            raise ValueError(f"exponent must be >= 1, got {_value_repr(value)}")
        if v == math.inf:
            raise ValueError("use INFINITY (or Exponent()) for the infinite exponent")
        self._set(v)
        # Integer exponents take the exact-multiplication path so CSV output
        # is reproducible across platforms; only non-integer q goes through
        # exp/log.
        power, inv = (int(v) if v == int(v) else v), 1.0 / v
        if v == 1.0:
            combine, columns = _sum_or_inf, _sum_columns
        else:
            combine = partial(_power_sum, power, inv)
            columns = partial(_power_sum_columns, power, inv)
        self._derive(_combine=combine, _combine_columns=columns, _power=power, _inv=inv)

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def __float__(self) -> float:
        """The exponent as a number, inf for the infinity tag, so that
        ``_number`` reads an Exponent."""
        return math.inf if self.value is None else self.value

    def __repr__(self) -> str:
        return "Exponent(inf)" if self.is_inf else f"Exponent({self.value})"


INFINITY = Exponent()


def as_exponent(p: object) -> Exponent:
    """Coerce an Exponent, a number, ``math.inf``, or the string ``"inf"``
    or ``"infinity"`` in any case to an Exponent; a number is read as
    ``Exponent`` reads it, and no other string is."""
    if isinstance(p, Exponent):
        return p
    if isinstance(p, str) and p.lower() in ("inf", "infinity"):
        return INFINITY
    return INFINITY if _number("exponent", p) == math.inf else Exponent(p)


def _number(name: str, value: object, strings: bool = False) -> float:
    """``value`` read into a float, or a ValueError naming ``name``: the
    one rule of what a number is, for every scalar the public API reads.

    A bool, bytes, a str unless ``strings`` allows text, and anything
    ``float()`` refuses by type (None, a list, a complex) is not a number.
    Text ``float()`` cannot parse reads as NaN, and NaN and inf are
    returned, for the caller's own range or finiteness check. A value past
    the float range, such as ``10**400``, is refused."""
    if not isinstance(value, (bool, bytes) if strings else (bool, bytes, str)):
        try:
            return float(value)
        except TypeError:
            pass
        except ValueError:  # text that is not a number
            return math.nan
        except OverflowError:
            raise ValueError(f"{name} is past the float range, got {_value_repr(value)}") from None
    kind = "a number or a string" if strings else "a number"
    raise ValueError(f"{name} must be {kind}, got {_value_repr(value)}")


def _value_repr(value: object) -> str:
    """``repr(value)`` for an error message, except for an int, or a
    rational such as a ``Fraction``, with a part of more than 2 048 bits:
    that is shown by its type name and bit length, never as decimal text,
    which Python refuses to make past 4 300 digits by default."""
    try:
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    except AttributeError:  # not a rational number
        return repr(value)
    # 2 048 bits make at most 617 digits, fewer than the least limit on
    # int-to-text conversion that Python can be set to (640).
    return f"{type(value).__name__} of {bits} bits" if bits > 2048 else repr(value)


_REPR_COORDS = 4


def _point_repr(v: Sequence[float]) -> str:
    """A point (a tuple) or value list for an error message: its repr up to
    ``_REPR_COORDS`` coordinates, else the first few and the dimension, so a
    message stays short at any dimension. Each coordinate is shown by
    ``_value_repr``, so a huge int is named by its bit length."""
    head = ", ".join(map(_value_repr, v[:_REPR_COORDS]))
    if len(v) > _REPR_COORDS:
        return f"({head}, ...; dimension {len(v)})"
    return f"[{head}]" if type(v) is list else f"({head}{',' * (len(v) == 1)})"


def check_point(v: Sequence[float]) -> Point:
    """Coerce to a tuple of floats, rejecting empty or non-finite input.

    A point is a sequence of numbers: a str or bytes point is a ValueError,
    and each coordinate is read by ``_number``, named by its index and the
    point. A tuple of exact floats is returned as it is, recognised by
    counting its coordinates of type float, with no per-coordinate type
    test and no copy. It is finite when the sum of its coordinates is: a
    non-finite coordinate makes the sum inf or nan, and only a sum past the
    float range takes a second look.
    """
    if type(v) is not tuple or not v or countOf(map(type, v), float) != len(v):
        if isinstance(v, (str, bytes)):
            raise ValueError(f"a point is a sequence of numbers, not a {type(v).__name__}")
        v = tuple(v)
        shown = _point_repr(v)
        v = tuple([_number(f"coordinate {i} of {shown}", c) for i, c in enumerate(v)])
        if not v:
            raise ValueError("a point must have dimension >= 1")
    if math.isfinite(sum(v)) or all(map(math.isfinite, v)):
        return v
    i = next(i for i, c in enumerate(v) if not math.isfinite(c))
    raise ValueError(f"non-finite coordinate {v[i]!r} at index {i} in {_point_repr(v)}")


class Domain(_Record):
    """Parameter values from ``low`` to ``high``, each end open or closed as
    ``ends`` shows, integers only if ``integer``, else read by ``read``
    (numbers only, no strings, unless ``strings``), with a ``note`` on a rule
    the interval does not spell out or that is checked elsewhere; ``str``
    gives "integer in [2, 16]"."""

    __slots__ = _fields = ("low", "high", "ends", "integer", "note", "read", "strings")
    _defaults = {"ends": "()", "integer": False, "note": None, "read": float, "strings": True}

    def __str__(self) -> str:
        text = f"{self.ends[0]}{self.low}, {self.high}{self.ends[1]}"
        text = f"integer in {text}" if self.integer else text
        return f"{text} with {self.note}" if self.note else text

    def check(self, name: str, value: object) -> float:
        """``value`` read into the domain, or a ValueError naming ``name``:
        an integer domain keeps an int as it is, and any other value is
        read by ``_number`` and then ``read``."""
        if self.integer and isinstance(value, int) and not isinstance(value, bool):
            x = value  # as it is: float() overflows past the float range
        else:
            _number(name, value, self.strings)
            try:
                x = math.nan if self.integer else self.read(value)
            except ValueError:  # text that is not a number, or not in ``read``'s domain
                x = math.nan
        # A closed end compares with <=, an open one with <.
        above, below = (le if end in "[]" else lt for end in self.ends)
        if above(self.low, x) and below(x, self.high):
            return x
        article = "an" if self.integer else "in"
        raise ValueError(f"{name} must be {article} {self}, got {_value_repr(value)}")


# Every contraction constant lies in (0, 1), and every cycle has m >= 2 regions.
ALPHA = Domain(0, 1)
CYCLE_LENGTH = Domain(2, math.inf, "[)", integer=True, strings=False)
# Every exponent p or q lies in [1, inf]: as_exponent reads "inf" and no
# other string, and its inf has value None.
EXPONENT = Domain(1, math.inf, "[]", read=lambda q: as_exponent(q).value or math.inf)
# Tolerances and radii: numbers in (0, inf), no strings.
POSITIVE = Domain(0, math.inf, strings=False)
# Dimensions and counts (samples, triples, iterations): integers >= 1.
COUNT = Domain(1, math.inf, "[)", integer=True, strings=False)
# Step counts (``picard_orbit``'s n, the solvers' max_iter, ``apply_n``'s
# and ``apriori_error_bound``'s k): integers >= 0.
STEPS = Domain(0, math.inf, "[)", integer=True, strings=False)


def _floats(name: str, values: Iterable[object]) -> list[float]:
    """``values`` each read by ``_number``, named ``name[i]`` by its index."""
    return [_number(f"{name}[{i}]", v) for i, v in enumerate(values)]


def p_combine(values: Iterable[float], p: object) -> float:
    """(sum v_i^p)^(1/p) over nonnegative values, or their max for p = inf.

    Finite p factors out the largest value before exponentiating, so large
    exponents cannot overflow on large inputs. Each value is read by
    ``_number``; a negative or NaN value is a ValueError.
    """
    exp = as_exponent(p)
    vals = _floats("values", values)
    if not all(v >= 0.0 for v in vals):
        raise ValueError(f"p_combine is defined for nonnegative values, got {_point_repr(vals)}")
    return exp._combine(vals)


class Space:
    """Base for metric substrates; subclasses define ``_distance``.

    ``point`` is the one reader of a point from outside: ``check_point``
    plus this space's dimension. ``distance`` is the public entry point and
    reads both points through it. ``_distance`` is the metric on points
    already read, for internal kernels that measure points they read once.
    """

    __slots__ = ()
    dimension: int
    # Whether ``_distance(a, b) >= abs(a[0] - b[0])`` holds for all points,
    # so that a first-coordinate gap above a tolerance decides, with no
    # distance call, that the distance is above it too, whether
    # ``_distance(a, b)`` is ``_distance(b, a)`` bit for bit, and whether
    # points that are ``==`` give equal distance bits.
    _gap_bound = False

    def point(self, v: Sequence[float], what: str = "point") -> Point:
        """``v`` as a point of this space, or a ValueError; ``what`` labels
        the point in the message."""
        pt = check_point(v)
        if len(pt) != self.dimension:
            raise ValueError(
                f"{what} of dimension {len(pt)} in a {self.dimension}-dimensional space"
            )
        return pt

    def _as_read(self, points: Sequence[object]) -> bool:
        """Whether ``point`` would return every one of ``points`` as it is:
        nonempty tuples of ``dimension`` exact floats, all finite. One
        C-level pass per test, over the points and then over all their
        coordinates, with ``check_point``'s finiteness test on the sum of the
        coordinates. A block of points read as it is needs no per-point
        ``point`` call."""
        n, dim = len(points), self.dimension
        if dim < 1 or countOf(map(type, points), tuple) != n or countOf(map(len, points), dim) != n:
            return False
        coords = list(itertools.chain.from_iterable(points))
        return countOf(map(type, coords), float) == len(coords) and (
            math.isfinite(sum(coords)) or all(map(math.isfinite, coords))
        )

    def _read_block(self, points: Sequence[object]) -> tuple[Sequence[Point], Exception | None]:
        """``points`` read by ``point``, with the exception of the first
        that fails, or None: as they are when one ``_as_read`` pass takes
        them all, else one at a time, and then only those before the first
        that fails, so its index is the number read."""
        if self._as_read(points):
            return points, None
        read = []
        for pt in points:
            try:
                read.append(self.point(pt))
            except Exception as exc:
                return read, exc
        return read, None

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        return self._distance(self.point(a), self.point(b))

    def _distance(self, pa: Point, pb: Point) -> float:
        raise NotImplementedError


def _combined_gaps(combine: Callable[[list[float]], float], pa: Point, pb: Point) -> float:
    if pa == pb:
        return 0.0
    return combine(list(map(abs, map(sub, pa, pb))))


def _line_gap(pa: Point, pb: Point) -> float:
    # Every l^q norm of a 1-vector is |v|: the peak-scaled sum gives
    # v * fsum([1.0]) ** (1/q) = v, and fsum([v]) and max([v]) are v.
    return abs(pa[0] - pb[0])


def _plane_gap(power: float, inv: float, pa: Point, pb: Point) -> float:
    # The peak-scaled power sum of two gaps, unrolled. The peak's own term
    # is (peak / peak) ** q = 1.0 exactly, and fsum of two floats is their
    # correctly rounded sum, which is what IEEE addition returns, so this is
    # the same bits as the exponent's _combine of [g0, g1].
    a0, a1 = pa
    b0, b1 = pb
    g0 = abs(a0 - b0)
    g1 = abs(a1 - b1)
    if g0 < g1:
        g0, g1 = g1, g0
    if g0 == 0.0:
        return 0.0
    if g0 == math.inf:
        return g0
    return g0 * (1.0 + (g1 / g0) ** power) ** inv


def _space_gap(power: float, inv: float, pa: Point, pb: Point) -> float:
    # The exponent's _combine of the three gaps, unpacked: the gaps, their
    # peak, fsum of the three (g / peak) ** q terms in coordinate order,
    # ** (1/q) and * peak, the same operations in the same order, so the
    # same bits, with no list. Equal finite points give three 0.0 gaps and
    # the zero peak's 0.0, so no equal-point test is needed.
    a0, a1, a2 = pa
    b0, b1, b2 = pb
    g0 = abs(a0 - b0)
    g1 = abs(a1 - b1)
    g2 = abs(a2 - b2)
    peak = max(g0, g1, g2)
    if peak == 0.0:
        return 0.0
    if peak == math.inf:
        return peak
    terms = ((g0 / peak) ** power, (g1 / peak) ** power, (g2 / peak) ** power)
    return peak * math.fsum(terms) ** inv


def _max_gap(pa: Point, pb: Point) -> float:
    if pa == pb:
        return 0.0
    return max(map(abs, map(sub, pa, pb)))


# The kernels ``LqSpace`` chooses from, each at least the first-coordinate gap.
_GAP_KERNELS = (_line_gap, _max_gap, _combined_gaps, _plane_gap, _space_gap)


class LqSpace(_Record, Space):
    """R^dimension under the l^q norm.

    The trusted ``_distance`` is bound once, at construction, to a kernel
    chosen from (q, dimension): |a - b| on the line, the max of the
    coordinate gaps for q = inf, and for 1 < q < inf the unrolled two-term
    power sum in the plane and the three-term power sum on unpacked
    coordinates in three dimensions; for q = 1, and for 1 < q < inf from
    four dimensions up, the exponent's ``_combine`` of the gaps. Each
    returns the bits that the exponent's ``_combine`` of the gaps would.

    The q = inf kernel and the ``_combine`` of the gaps return 0.0 for
    equal points before building any list. That is exact for finite points:
    ``a == b`` makes every difference +0.0 or -0.0 and every gap 0.0, so
    each kernel would return +0.0, also for ``(0.0,) == (-0.0,)``.
    The line, plane and three-coordinate kernels build no list, return +0.0
    from their zero peak, and do without it. The plane and three-coordinate
    kernels unpack their points, so a point of another length raises.
    """

    __slots__ = ("q", "dimension", "_distance")
    _fields = ("q", "dimension")
    __dataclass_fields__ = _DATACLASS_FIELDS

    def __init__(self, q: Exponent, dimension: int) -> None:
        q = as_exponent(q)
        dimension = COUNT.check("dimension", dimension)
        self._set(q, dimension)
        if dimension == 1:
            kernel = _line_gap
        elif q.is_inf:
            kernel = _max_gap
        elif q.value == 1.0 or dimension > 3:
            kernel = partial(_combined_gaps, q._combine)
        elif dimension == 2:
            kernel = partial(_plane_gap, q._power, q._inv)
        else:
            kernel = partial(_space_gap, q._power, q._inv)
        self._derive(_distance=kernel)

    @property
    def _gap_bound(self) -> bool:
        """True while ``_distance`` is a kernel chosen here: each is at
        least the gap ``abs(a[0] - b[0])`` of finite points a and b, bit for
        bit. The line kernel is that gap and the q = inf kernel a max over
        the gaps; the ``_combine`` of the gaps at q = 1 is a correctly
        rounded sum of nonnegative terms, which cannot fall below a term; at
        1 < q < inf it, and the plane and three-coordinate kernels, multiply
        the peak gap by a power sum raised to 1/q whose peak term is 1.0
        exactly, so by a factor of at least 1.
        Each is also symmetric bit for bit: it reads its points only through
        ``a == b`` and the gaps ``abs(a_i - b_i)``, and ``a_i - b_i`` is
        ``-(b_i - a_i)`` exactly, so ``_distance(a, b)`` is
        ``_distance(b, a)``. The orbit trace's settled stretch relies on
        the same reading: points that are ``==`` have coordinates equal up
        to the sign of zero, so the same ``==`` results and the same gaps,
        and give the same distance bits. A kernel put in its place, by a
        subclass or otherwise, is not vouched for."""
        kernel = self._distance
        return getattr(kernel, "func", kernel) in _GAP_KERNELS

    def norm(self, v: Sequence[float]) -> float:
        """The l^q norm of ``v``, read by ``point`` as a vector of this space."""
        return p_combine(map(abs, self.point(v, "vector")), self.q)


class OracleSpace(_Record, Space):
    """A space whose metric is a caller-supplied deterministic oracle.

    The oracle must be pure and reentrant; the axioms are not assumed but can
    be spot-checked with ``validate_metric``. The orbit solvers call it on
    map images before they are validated, so it must also return or raise
    on anything a system's map returns; a raise there only makes the solver
    walk that stretch of the orbit again one validated step at a time.
    """

    __slots__ = _fields = ("oracle", "dimension")

    def __init__(self, oracle: Callable[[Point, Point], float], dimension: int) -> None:
        self._set(oracle, COUNT.check("dimension", dimension))

    def _distance(self, pa: Point, pb: Point) -> float:
        return float(self.oracle(pa, pb))


class MetricReport(_Record):
    __slots__ = _fields = ("ok", "symmetry_violations", "identity_violations", "triangle_violations")


def validate_metric(
    space: Space,
    sample_points: Sequence[Sequence[float]],
    seed: int = 0,
    tol: float = 1e-12,
    max_triples: int = 2000,
) -> MetricReport:
    """Spot-check symmetry, d(x,x)=0, and the triangle inequality on samples.

    ``tol`` is read by ``POSITIVE`` and ``max_triples`` by ``COUNT``. The
    samples are read once, in order, by ``space.point`` and then measured
    with the trusted ``_distance``. A NaN distance is a violation; two
    distances that overflow to inf are equal, and inf <= inf holds.
    Violations are returned as witnesses, never raised.
    """
    tol = POSITIVE.check("tol", tol)
    max_triples = COUNT.check("max_triples", max_triples)
    pts = list(map(space.point, sample_points))
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    dist = space._distance

    identity = [(x, dxx) for x, dxx in zip(pts, map(dist, pts, pts)) if not abs(dxx) <= tol]

    symmetry = []
    for x, y in itertools.combinations(pts, 2):
        dxy, dyx = dist(x, y), dist(y, x)
        if not (dxy == dyx or abs(dxy - dyx) <= tol):
            symmetry.append((x, y, dxy, dyx))

    triples = list(itertools.combinations(pts, 3))
    if len(triples) > max_triples:
        rng = random.Random(seed)
        triples = rng.sample(triples, max_triples)
    triangle = []
    for x, y, z in triples:
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            lhs = dist(a, c)
            rhs = dist(a, b) + dist(b, c)
            if not (lhs <= rhs or lhs - rhs <= tol):
                triangle.append((a, b, c, lhs, rhs))

    ok = not (identity or symmetry or triangle)
    return MetricReport(ok, tuple(symmetry), tuple(identity), tuple(triangle))
