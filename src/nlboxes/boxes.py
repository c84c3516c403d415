"""Binary bipartite boxes and their CHSH analysis.

A box is the conditional distribution P(ab|xy) of a two-party device where
each party feeds in one bit and reads one bit back. It is stored as a 4x4
row-stochastic matrix: the row index is the input pair xy in the fixed
order 00, 01, 10, 11, the column index is the output pair ab in the same
order. Every module in this package consumes and produces this one
representation, and all file I/O uses this ordering.

A ``Box`` holds its 16 entries as four tuples of Python floats, and every
single-box question asked here (validity, non-signaling, correlators, the
CHSH values) is answered on those floats, each sum in the order numpy's
elementwise operations take, so this module imports no numpy for a box
given as four lists or tuples of four Python numbers, the form a box file
and every constructor here give. ``Box.matrix`` is the same table as a
read-only float ndarray for the modules that compute on arrays, built from
``rows`` on its first access, which is where numpy is imported. A table in
any other form (an ndarray, numpy scalars, a wrong shape, entries that are
not numbers) is read by numpy into the same rows; the box keeps no array.

All comparisons share a single absolute tolerance (default 1e-9). The
quantities computed here are low-degree polynomials of the table entries,
so double precision keeps rounding error orders of magnitude below it.

Every input of the package follows one contract, checked here:

- a number (a box entry, a correlator, a tolerance, eps, delta, eta, lam,
  fixed_delta) is a Python or numpy int or float, not a bool, that a float
  holds (``_check_number``; ``_as_rows`` for box entries). Correlators,
  tolerances (``check_tol``) and the family's eps and delta are kept as the
  floats their checks return, so a numpy tolerance or correlator gives the
  answer of its float: no numpy types and no float32 arithmetic;
- an integer (a copy count, the AND game's depth, ``n_max``, a strategy
  code or bit) is a Python or numpy int, not a bool, in the documented
  range (``_check_int``, ``_is_bit``), and is kept as a plain int.

Anything else raises ``ValueError``: strings, bools, None, Fractions,
Decimals, arrays and complex numbers alike. A numpy value can exist only
once numpy is imported, so these checks read numpy's types from
``sys.modules`` and never import it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9

# The most copies ``compose_xor`` and its callers take, and the largest
# ``n_max`` of ``optimize_quantum_distillation``, checked before any array is
# built (only its bound runs over every n row: 0.036 s and 4.5 MB of extra
# peak RSS at 1000 on a 2-core Xeon). They live here, with the errors below,
# so that the command line names them without importing those modules.
MAX_XOR_COPIES = 16
MAX_OPTIMIZE_N = 1000

XY_LABELS = ("00", "01", "10", "11")
AB_LABELS = ("00", "01", "10", "11")

CHSH_LABELS = (
    "chsh00",
    "chsh01",
    "chsh10",
    "chsh11",
    "chsh00_neg",
    "chsh01_neg",
    "chsh10_neg",
    "chsh11_neg",
)


class InvalidBoxError(ValueError):
    """A box failed row-stochasticity validation."""


class SignalingBoxError(ValueError):
    """An operation that assumes non-signaling received a signaling box."""


class InfeasibleRegionError(RuntimeError):
    """No parameter point satisfies the quantum and distillability constraints."""


_ROW_TYPES = (list, tuple)


def _as_rows(values) -> tuple[tuple[float, ...], ...]:
    """Four rows of four floats from ``values``, which hold ints and floats,
    Python or numpy, and no bools; ``ValueError`` otherwise. NaN and
    infinite entries pass, for ``validate`` to report.

    The usual table, four lists or tuples of four Python ints and floats, is
    read without numpy. Rows of unequal lengths are refused as not 4x4.
    Anything else is read by ``_as_matrix`` and returned as the rows of its
    array.
    """
    if type(values) in _ROW_TYPES and all(type(row) in _ROW_TYPES for row in values):
        lengths = set(map(len, values))
        if len(lengths) > 1:
            raise ValueError("box matrix must be 4x4, got rows of unequal lengths")
        if (len(values) == 4 and lengths == {4}
                and all(type(v) is float or type(v) is int for row in values for v in row)):
            try:
                return tuple(tuple(map(float, row)) for row in values)
            except OverflowError:
                pass  # an int too large for a float: _as_matrix gives the message
    return tuple(map(tuple, _as_matrix(values).tolist()))


def _as_matrix(values) -> np.ndarray:
    """A 4x4 float array of ``values``, which hold ints and floats, Python or
    numpy, and no bools; ``ValueError`` otherwise. An ndarray is checked by
    its dtype, anything else entry by entry. NaN and infinite entries pass,
    for ``validate`` to report. Only ``_as_rows`` reads the array, so it
    stays writable. Imports numpy."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind not in "iuf":
        raise ValueError(f"box matrix must hold numbers, got {values.dtype}")
    try:
        arr = np.array(values, dtype=float)
    except TypeError as exc:  # entries such as JSON objects
        raise ValueError(f"box matrix must hold numbers: {exc}") from exc
    except OverflowError as exc:  # integers such as JSON's 1 followed by 400 zeros
        raise ValueError("box matrix entry is too large for a float") from exc
    if arr.shape != (4, 4):
        raise ValueError(f"box matrix must be 4x4, got shape {arr.shape}")
    if not isinstance(values, np.ndarray):
        # The matrix is 4x4 now, so it is four rows of four entries.
        samples = {type(v): v for row in values for v in row}.values()  # one entry per type
        kinds = {type(v).__name__ for v in samples if not _is_number(v)}
        if kinds:
            raise ValueError(f"box matrix must hold numbers, got {', '.join(sorted(kinds))}")
    return arr


@dataclass(frozen=True, eq=False, init=False)
class Box:
    """Conditional distribution P(ab|xy): ``rows[xy][ab]``, four rows of four
    Python floats, built from a 4x4 table of numbers by ``_as_rows``.

    ``matrix`` is the same table as a read-only 4x4 float ndarray, built
    from ``rows`` on the first access, which imports numpy; ``rows`` is the
    only form a box stores.

    Construction does not check probability constraints; use ``validate``
    to obtain a report, so that broken tables can still be inspected.
    """

    rows: tuple[tuple[float, float, float, float], ...]

    def __init__(self, matrix) -> None:
        object.__setattr__(self, "rows", _as_rows(matrix))

    @cached_property
    def matrix(self) -> np.ndarray:
        import numpy as np

        array = np.array(self.rows)
        array.setflags(write=False)
        return array

    def to_json_dict(self) -> dict:
        return {"matrix": [list(row) for row in self.rows]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Box":
        """The box of a ``{"matrix": ...}`` object whose 16 entries are JSON numbers.

        Raises ``ValueError`` for any other object, including one whose
        entries are strings, booleans or nulls, or an integer too large for
        a float: the ``Box`` rule. NaN and infinite numbers pass, for
        ``validate`` to report.
        """
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise ValueError('box JSON must be an object with a "matrix" key')
        return cls(obj["matrix"])

    @classmethod
    def from_json(cls, text: str) -> "Box":
        """The box of JSON text such as ``to_json`` writes.

        Raises ``ValueError`` when the text holds no box, including text
        nested too deeply for the decoder; malformed JSON raises its
        ``json.JSONDecodeError``, also a ``ValueError``.
        """
        try:
            obj = json.loads(text)
        except RecursionError as exc:  # the decoder recurses once per nesting level
            raise ValueError("JSON nested too deeply") from exc
        return cls.from_json_dict(obj)


@dataclass(frozen=True)
class Correlators:
    """The four correlation functions of a box, one per input pair xy.

    Each must be a finite number; ``ValueError`` otherwise. The range
    [-1, 1] is checked where a tolerance is known, by ``arcsin_sums``.
    """

    x00: float
    x01: float
    x10: float
    x11: float

    def __post_init__(self) -> None:
        for name, value in zip(("x00", "x01", "x10", "x11"), self.as_tuple()):
            number = _check_number(value, "correlator")
            if not math.isfinite(number):
                raise ValueError(f"correlator {value!r} is not in [-1, 1]")
            object.__setattr__(self, name, number)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x00, self.x01, self.x10, self.x11)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the two-parameter resource family ``p_eps_delta``, kept
    as plain floats: a float32 delta would round the rows' sums off 1."""

    eps: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", _check_number(self.eps, "eps"))
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        object.__setattr__(self, "delta", _check_unit(self.delta, "delta"))


@dataclass(frozen=True)
class Violation:
    where: str
    constraint: str
    residual: float

    def __str__(self) -> str:
        return f"{self.where}: {self.constraint} (residual {self.residual:.3g})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class NonSignalingCheck(NamedTuple):
    ok: bool
    residual: float


# A number is a Python or numpy int or float. bool is an int subclass, so the
# checks exclude it by name. A numpy scalar exists only once numpy is
# imported, so its types are read from ``sys.modules``, after the Python
# types that every ``Correlators`` and every parsed entry has.


def _is_int(value) -> bool:
    """A Python or numpy int that is not a bool."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def _is_number(value) -> bool:
    """A Python or numpy int or float that is not a bool."""
    if isinstance(value, (float, int)):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, (np.floating, np.integer))


def _shown(value) -> str:
    """``repr(value)`` for an error message, or, for an int too long for
    Python to write out (``sys.get_int_max_str_digits``), its digit count."""
    try:
        return repr(value)
    except ValueError:
        size = abs(int(value))
        digits = int(size.bit_length() * math.log10(2)) + 1  # exact or one too many
        return f"an int of {digits - (size < 10 ** (digits - 1))} digits"


def _check_int(value, name: str, lo: int, hi: int = sys.maxsize) -> int:
    """``value`` as a plain int. Raises ``ValueError`` unless it is a Python
    or numpy int in the integer range lo..hi, not a bool. The default ``hi``
    bounds a count that has no limit of its own, and its message leads with
    ``lo``."""
    if _is_int(value) and lo <= value <= hi:
        return int(value)
    span = f"an integer >= {lo} and <= sys.maxsize" if hi == sys.maxsize else f"in {lo}..{hi}"
    raise ValueError(f"{name} must be {span}, got {_shown(value)}")


def _check_number(value, name: str) -> float:
    """``value`` as a float. Raises ``ValueError`` unless it is a Python or
    numpy int or float, not a bool, that a float holds."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # a Python int above the largest float
        raise ValueError(f"{name} is too large for a float") from exc


def _check_unit(value, name: str) -> float:
    """``value`` as a float. Raises ``ValueError`` unless it is a number in [0, 1]."""
    unit = _check_number(value, name)
    if not 0.0 <= unit <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return unit


def _is_bit(value) -> bool:
    """An int 0 or 1, Python or numpy, that is not a bool."""
    return _is_int(value) and value in (0, 1)


def check_tol(tol: float) -> float:
    """``tol`` as a float. Raises ``ValueError`` unless it is a finite
    number >= 0, by the ``_check_number`` rule."""
    value = _check_number(tol, "tolerance")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return value


def validate(box: Box, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that every row of the box is a probability distribution.

    Returns a report listing each violated constraint with its residual;
    an empty report means the box is valid within ``tol``. A NaN or
    infinite entry is a violation of its own, and its row sum is not
    checked. Raises ``ValueError`` for a negative or non-finite ``tol``.

    Every box, valid or not, is judged by one pass over its entries as
    Python floats, row by row in column order. It is the only path and
    calls no numpy function. A row is summed as ((a + b) + c) + d, the
    order of numpy's ``add.reduce`` on 4 entries. Python float arithmetic
    raises no warning, so a row whose sum overflows is reported with
    residual inf at any ``tol``, and nothing is written on stderr.
    """
    tol = check_tol(tol)
    violations: list[Violation] = []
    for xy, row in zip(XY_LABELS, box.rows):
        for ab, v in zip(AB_LABELS, row):
            if not -tol <= v <= 1.0 + tol:  # NaN fails both comparisons
                where = f"row xy={xy} col ab={ab}"
                if not math.isfinite(v):
                    violations.append(Violation(where, "non-finite entry", abs(v)))
                elif v < -tol:
                    violations.append(Violation(where, "negative entry", -v))
                else:
                    violations.append(Violation(where, "entry exceeds 1", v - 1.0))
        # numpy's order: a residual has the bits of abs(box.matrix.sum(axis=1) - 1.0).
        off = abs(((row[0] + row[1]) + row[2]) + row[3] - 1.0)
        if off > tol and all(map(math.isfinite, row)):
            violations.append(Violation(f"row xy={xy}", "row sum != 1", off))
    return ValidationReport(tuple(violations))


def require_valid(box: Box, tol: float = DEFAULT_TOL) -> None:
    report = validate(box, tol)
    if not report.ok:
        raise InvalidBoxError(f"invalid box: {report.describe()}")


def _marginals(box: Box) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]:
    """P(a|xy) and P(b|xy), each four rows (one per xy) of two floats (one
    per own output): a row (p00, p01, p10, p11) gives (p00 + p01, p10 + p11)
    and (p00 + p10, p01 + p11), the sums of numpy's
    ``m[:, 0::2] + m[:, 1::2]`` and ``m[:, :2] + m[:, 2:]``. Float sums
    raise no warning: one that overflows is inf."""
    return (tuple((a + b, c + d) for a, b, c, d in box.rows),
            tuple((a + c, b + d) for a, b, c, d in box.rows))


def _peak(values: list[float]) -> float:
    """The largest of ``values``, or NaN if one of them is NaN, as numpy's
    ``max`` reads an array (Python's ``max`` skips a NaN after the first)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def is_non_signaling(box: Box, tol: float = DEFAULT_TOL) -> NonSignalingCheck:
    """Check that each party's output marginals ignore the other's input.

    Returns the verdict together with the worst marginal discrepancy.
    Raises ``InvalidBoxError`` if the box is not row-stochastic.
    """
    tol = check_tol(tol)
    require_valid(box, tol)
    alice, bob = _marginals(box)
    # Alice's rows 2x and 2x + 1 differ only in y; Bob's rows y and 2 + y only in x.
    alice_gap = _peak([abs(p - q) for r in (0, 2) for p, q in zip(alice[r], alice[r + 1])])
    bob_gap = _peak([abs(p - q) for r in (0, 1) for p, q in zip(bob[r], bob[r + 2])])
    # ``_peak`` of the two, not Python's ``max``, which would return Alice's
    # gap beside a NaN Bob gap: a NaN gap makes the box signaling, with
    # residual NaN.
    worst = _peak([alice_gap, bob_gap])
    return NonSignalingCheck(worst <= tol, worst)


def require_non_signaling(box: Box, tol: float = DEFAULT_TOL) -> None:
    check = is_non_signaling(box, tol)
    if not check.ok:
        raise SignalingBoxError(f"box is signaling: worst marginal discrepancy {check.residual:.3g}")


def _correlator_rows(rows) -> list[float]:
    """The correlator of each row (a, b, c, d) = (P(00), P(01), P(10), P(11))
    of ``rows``, a box's four or a stack's, as Python floats.

    Each is summed as (a - c) + (d - b), the one order of every correlator
    and S in the package, with no matrix product, so the bits do not depend
    on a BLAS.
    """
    return [(a - c) + (d - b) for a, b, c, d in rows]


def _correlators(box: Box) -> Correlators:
    """``correlators`` of a box the caller has already checked, summed row
    by row in ``_correlator_rows``'s order. A correlator that is not finite
    raises ``InvalidBoxError``: the sum overflows on a box that is valid
    only at a huge tolerance, such as rows [1e308, -1e308, -1e308, 1e308]."""
    values = _correlator_rows(box.rows)
    if not all(map(math.isfinite, values)):
        raise InvalidBoxError(f"invalid box: correlators {values} are not all finite")
    return Correlators(*values)


def correlators(box: Box, tol: float = DEFAULT_TOL) -> Correlators:
    """The four signed sums P(00|xy) + P(11|xy) - P(01|xy) - P(10|xy)."""
    require_valid(box, tol)
    return _correlators(box)


def chsh_values(c: Correlators) -> tuple[float, ...]:
    """The eight signed CHSH expressions of a correlator tuple.

    For each input pair the expression adds the three correlators sharing
    an input bit with it and subtracts the fourth (both bits flipped).
    The order is (chsh00, chsh01, chsh10, chsh11) followed by their
    negations, matching ``CHSH_LABELS``.
    """
    grid = ((c.x00, c.x01), (c.x10, c.x11))
    vals = []
    for x in (0, 1):
        for y in (0, 1):
            s = grid[x][y] + grid[x][1 - y] + grid[1 - x][y] - grid[1 - x][1 - y]
            vals.append(s)
    return tuple(vals) + tuple(-v for v in vals)


# The eight CHSH functionals as coefficients of (x00, x01, x10, x11), one tuple
# per functional in ``CHSH_LABELS`` order; read off ``chsh_values``.
_UNIT_CORRELATORS = [Correlators(*(float(i == j) for j in range(4))) for i in range(4)]
CHSH_SIGNS = tuple(zip(*map(chsh_values, _UNIT_CORRELATORS)))


def nl_correlators(c: Correlators) -> float:
    """Maximum CHSH value of a correlator tuple (always >= 0)."""
    return max(chsh_values(c))


def nl(box: Box, tol: float = DEFAULT_TOL) -> float:
    """CHSH non-locality: the largest absolute CHSH expression of the box.

    Values above 2 certify non-locality; the algebraic maximum is 4.
    """
    return nl_correlators(correlators(box, tol))


def is_local(box: Box, tol: float = DEFAULT_TOL) -> bool:
    """True iff the box violates no CHSH inequality.

    Only meaningful inside the non-signaling set, where the eight CHSH
    inequalities are a complete description of locality; a signaling box
    raises ``SignalingBoxError``.
    """
    tol = check_tol(tol)
    require_non_signaling(box, tol)
    return nl_correlators(_correlators(box)) <= 2.0 + tol


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def pr() -> Box:
    """The extremal box with a XOR b = x AND y and uniform outputs."""
    correlated = (0.5, 0.0, 0.0, 0.5)
    anti = (0.0, 0.5, 0.5, 0.0)
    return Box((correlated, correlated, correlated, anti))


def noise() -> Box:
    """Uniform output noise, the center of the non-signaling set."""
    return Box(((0.25,) * 4,) * 4)


def p_eps(eps: float) -> Box:
    """Perfectly correlated outputs except on input pair 11.

    On the 11 row the outputs anticorrelate with probability ``eps``, so the
    box behaves like a PR box with probability ``eps`` and like shared
    correlated randomness otherwise. Requires 0 < eps <= 1.
    """
    return p_eps_delta(eps)


def p_eps_delta(eps: float, delta: float = 0.0) -> Box:
    """Two-parameter generalization of ``p_eps`` with noisy top rows.

    The first three input pairs anticorrelate with probability ``delta``,
    the 11 pair with probability ``eps``. ``delta = 0`` recovers ``p_eps``.
    """
    params = FamilyParams(eps, delta)
    top = (0.5 - params.delta / 2.0, params.delta / 2.0, params.delta / 2.0, 0.5 - params.delta / 2.0)
    last = (0.5 - params.eps / 2.0, params.eps / 2.0, params.eps / 2.0, 0.5 - params.eps / 2.0)
    return Box((top, top, top, last))


def isotropic(eta: float) -> Box:
    """Mixture eta * PR + (1 - eta) * noise; correlators (eta, eta, eta, -eta)."""
    _check_unit(eta, "eta")
    return mix(pr(), noise(), eta)


def deterministic(fa: Sequence[int], fb: Sequence[int]) -> Box:
    """Local deterministic box a = fa[x], b = fb[y].

    ``fa`` and ``fb`` are length-2 truth tables indexed by the input bit.
    Each entry must be an int 0 or 1, not a bool; ``ValueError`` otherwise.
    """
    fa, fb = tuple(fa), tuple(fb)
    if len(fa) != 2 or len(fb) != 2 or not all(map(_is_bit, fa + fb)):
        raise ValueError("fa and fb must each be two bits")
    m = [[0.0] * 4 for _ in range(4)]
    for x in (0, 1):
        for y in (0, 1):
            m[2 * x + y][2 * fa[x] + fb[y]] = 1.0
    return Box(m)


def mix(box1: Box, box2: Box, lam: float) -> Box:
    """Convex mixture lam * box1 + (1 - lam) * box2, with the entries as
    computed: no entry is edited after the sum."""
    lam = _check_unit(lam, "lam")
    rest = 1.0 - lam
    return Box([[lam * p + rest * q for p, q in zip(r1, r2)] for r1, r2 in zip(box1.rows, box2.rows)])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def format_17g(value: float) -> str:
    """Render a float with 17 significant digits (round-trips bit-exactly)."""
    return format(float(value), ".17g")


def load_box(path: str) -> Box:
    """Read a box file such as ``Box.to_json`` writes.

    Raises ``OSError`` when the file cannot be read, and ``ValueError``
    naming the file when it holds no box: text that is not UTF-8, malformed
    JSON (with its line and column), JSON nested too deeply for the decoder,
    or a matrix that is not 4x4 numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return Box.from_json(fh.read())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:
            raise ValueError(f"bad box file {path}: {exc}") from exc


def chsh_csv(box: Box, tol: float = DEFAULT_TOL) -> str:
    """CSV with the four correlators and the eight CHSH values."""
    return _chsh_csv(correlators(box, tol))


def _chsh_csv(c: Correlators) -> str:
    header = ",".join(("x00", "x01", "x10", "x11") + CHSH_LABELS)
    return header + "\n" + ",".join(format_17g(v) for v in c.as_tuple() + chsh_values(c)) + "\n"
