"""Core data model: observations, treatment pairs, design specs, CSV I/O.

An observation is ``(c0, e, c1, m, y)``: baseline covariates, an integer
treatment level, post-treatment covariates, a mediator, and an outcome.
Datasets are immutable column arrays; all downstream estimation first
restricts to a treatment pair and recodes it to an internal 0/1 coding.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "TreatmentPair",
    "PairCoding",
    "Term",
    "DesignSpec",
    "Overrides",
    "dataset_from_arrays",
    "restrict_to_pair",
    "recode_pair",
    "build_design_matrix",
    "read_csv",
    "write_csv",
    "wmean",
]


class DataError(ValueError):
    """Raised for malformed rows, files, or unresolvable column references."""


def wmean(values: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted empirical mean, normalized by the weight total."""
    values = np.asarray(values, dtype=float)
    if weights is None:
        return float(values.mean())
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise DataError("weights must have a positive sum")
    return float((weights * values).sum() / total)


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class Dataset:
    """Immutable column-oriented collection of observations.

    Arrays are locked after construction; operations on datasets return new
    instances, so a dataset can be shared freely across threads.
    """

    c0: np.ndarray  # (n, d0)
    e: np.ndarray  # (n,) integer treatment levels
    c1: np.ndarray  # (n, d1)
    m: np.ndarray  # (n,)
    y: np.ndarray  # (n,)

    def __post_init__(self):
        for name in ("c0", "e", "c1", "m", "y"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def d0(self) -> int:
        return self.c0.shape[1]

    @property
    def d1(self) -> int:
        return self.c1.shape[1]

    @property
    def e_levels(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.unique(self.e))

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the given rows (order and repeats preserved)."""
        idx = np.asarray(indices)
        return Dataset(
            c0=self.c0[idx].copy(),
            e=self.e[idx].copy(),
            c1=self.c1[idx].copy(),
            m=self.m[idx].copy(),
            y=self.y[idx].copy(),
        )


_LEVEL_LIMIT = 2**53  # every integer below it is exact as a double


def dataset_from_arrays(c0, e, c1, m, y) -> Dataset:
    """Assemble and validate a dataset from column arrays."""
    c0 = np.atleast_2d(np.asarray(c0, dtype=float))
    c1 = np.atleast_2d(np.asarray(c1, dtype=float))
    if c0.shape[0] == 1 and np.asarray(e).shape[0] != 1:
        c0 = c0.T
    if c1.shape[0] == 1 and np.asarray(e).shape[0] != 1:
        c1 = c1.T
    e = np.asarray(e)
    m = np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float)
    n = e.shape[0]
    if n == 0:
        raise DataError("empty input: at least one row is required")
    if not (c0.shape[0] == c1.shape[0] == m.shape[0] == y.shape[0] == n):
        raise DataError("column arrays disagree on the number of rows")
    if not np.all(np.isfinite(c0)):
        i, j = np.argwhere(~np.isfinite(c0))[0]
        raise DataError(f"row {i}: non-finite value in c0_{j + 1}")
    if not np.all(np.isfinite(c1)):
        i, j = np.argwhere(~np.isfinite(c1))[0]
        raise DataError(f"row {i}: non-finite value in c1_{j + 1}")
    for name, col in (("m", m), ("y", y)):
        if not np.all(np.isfinite(col)):
            i = int(np.flatnonzero(~np.isfinite(col))[0])
            raise DataError(f"row {i}: non-finite value in {name}")
    try:
        ef = np.asarray(e, dtype=float)
    except OverflowError:  # Python integers beyond the double range, rejected below
        ef = np.array([float(min(max(v, -_LEVEL_LIMIT), _LEVEL_LIMIT)) for v in e.tolist()])
    if not np.all(np.isfinite(ef)):
        i = int(np.flatnonzero(~np.isfinite(ef))[0])
        raise DataError(f"row {i}: non-finite value in e")
    if not np.all(ef == np.round(ef)) or np.any(ef < 0):
        i = int(np.flatnonzero((ef != np.round(ef)) | (ef < 0))[0])
        raise DataError(f"row {i}: treatment level must be a non-negative integer")
    if np.any(ef >= _LEVEL_LIMIT):
        i = int(np.flatnonzero(ef >= _LEVEL_LIMIT)[0])
        raise DataError(
            f"row {i}: treatment level {e[i]} is not below 2**53, "
            "above which a double does not hold every integer exactly"
        )
    return Dataset(c0=c0.astype(float), e=ef.astype(int), c1=c1.astype(float), m=m, y=y)


# ---------------------------------------------------------------------------
# treatment pairs


@dataclass(frozen=True)
class TreatmentPair:
    """A (comparison, baseline) contrast between two observed treatment levels."""

    comparison: int
    baseline: int

    @property
    def is_identity(self) -> bool:
        return self.comparison == self.baseline


@dataclass(frozen=True)
class PairCoding:
    """Internal 0/1 coding of a pair after restriction.

    Normal mode codes baseline as 0 and comparison as 1.  In identity-check
    mode the two coincide, so every indicator covers the full sample and
    counterfactual overrides target the same level, forcing the algebraic
    collapse of the weighted estimators onto their baseline-mean analogues.
    """

    pair: TreatmentPair
    comparison_internal: int = 1
    baseline_internal: int = 0

    @property
    def is_identity(self) -> bool:
        return self.comparison_internal == self.baseline_internal

    def ind_comparison(self, e: np.ndarray) -> np.ndarray:
        return (e == self.comparison_internal).astype(float)

    def ind_baseline(self, e: np.ndarray) -> np.ndarray:
        return (e == self.baseline_internal).astype(float)


def _check_pair(dataset: Dataset, pair: TreatmentPair, allow_identity: bool) -> None:
    levels = dataset.e_levels
    for name, level in (("comparison", pair.comparison), ("baseline", pair.baseline)):
        if level not in levels:
            raise DataError(f"{name} level {level} absent from dataset (observed: {sorted(levels)})")
    if pair.is_identity and not allow_identity:
        raise DataError("comparison equals baseline; pass allow_identity=True for an identity check")


def restrict_to_pair(dataset: Dataset, pair: TreatmentPair, *, allow_identity: bool = False) -> Dataset:
    """Keep exactly the records at the pair's levels, preserving order."""
    _check_pair(dataset, pair, allow_identity)
    mask = (dataset.e == pair.comparison) | (dataset.e == pair.baseline)
    return dataset.take(np.flatnonzero(mask))


def recode_pair(dataset: Dataset, pair: TreatmentPair, *, allow_identity: bool = False) -> tuple[Dataset, PairCoding]:
    """Restrict to the pair and recode treatment to the internal 0/1 scheme."""
    restricted = restrict_to_pair(dataset, pair, allow_identity=allow_identity)
    if pair.is_identity:
        coding = PairCoding(pair=pair, comparison_internal=1, baseline_internal=1)
        e = np.ones(restricted.n, dtype=int)
    else:
        coding = PairCoding(pair=pair)
        e = (restricted.e == pair.comparison).astype(int)
    return replace(restricted, e=e), coding


# ---------------------------------------------------------------------------
# design specifications

_REF_PATTERN = re.compile(r"^(c0_[1-9][0-9]*|c1_[1-9][0-9]*|e|m)$")


def _check_ref(ref: str) -> str:
    if not _REF_PATTERN.match(ref):
        raise DataError(f"invalid column reference {ref!r} (expected c0_j, c1_j, e, or m)")
    return ref


@dataclass(frozen=True)
class Term:
    """One design-matrix column: intercept, covariate, square, or product."""

    kind: str
    refs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "intercept":
            if self.refs:
                raise DataError("intercept term takes no references")
        elif self.kind in ("covariate", "square"):
            if len(self.refs) != 1:
                raise DataError(f"{self.kind} term takes exactly one reference")
            _check_ref(self.refs[0])
        elif self.kind == "product":
            if len(self.refs) != 2:
                raise DataError("product term takes exactly two references")
            for ref in self.refs:
                _check_ref(ref)
            if self.refs[0] == self.refs[1]:
                raise DataError(f"product of {self.refs[0]} with itself; use a square term")
        else:
            raise DataError(f"unknown term kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "intercept":
            return "1"
        if self.kind == "covariate":
            return self.refs[0]
        if self.kind == "square":
            return f"{self.refs[0]}^2"
        return f"{self.refs[0]}*{self.refs[1]}"

    def _canonical(self) -> tuple:
        refs = tuple(sorted(self.refs)) if self.kind == "product" else self.refs
        return (self.kind, refs)


def parse_term(text: str) -> Term:
    text = text.strip()
    if text == "1":
        return Term("intercept")
    if "*" in text:
        left, _, right = text.partition("*")
        left, right = left.strip(), right.strip()
        if left == right:
            return Term("square", (left,))
        return Term("product", (left, right))
    if text.endswith("^2"):
        return Term("square", (text[:-2].strip(),))
    return Term("covariate", (text,))


@dataclass(frozen=True)
class DesignSpec:
    """Ordered list of terms defining a regression design matrix."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.terms:
            raise DataError("design spec must contain at least one term")
        seen = set()
        for term in self.terms:
            key = term._canonical()
            if key in seen:
                raise DataError(f"duplicate term {term.label!r} in design spec")
            seen.add(key)

    @classmethod
    def parse(cls, text: str) -> "DesignSpec":
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        return cls(tuple(parse_term(p) for p in parts))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def refs(self) -> frozenset[str]:
        out: set[str] = set()
        for term in self.terms:
            out.update(term.refs)
        return frozenset(out)

    def validate_dims(self, d0: int, d1: int) -> None:
        for ref in sorted(self.refs()):
            if ref.startswith("c0_") and int(ref[3:]) > d0:
                raise DataError(f"column reference {ref} exceeds c0 dimension {d0}")
            if ref.startswith("c1_") and int(ref[3:]) > d1:
                raise DataError(f"column reference {ref} exceeds c1 dimension {d1}")

    def has_intercept(self) -> bool:
        return any(t.kind == "intercept" for t in self.terms)

    def reduce_at_e(self, e_value: int) -> "DesignSpec":
        """Design with E fixed at a constant, for a single-arm fit.

        Terms in E fold into the intercept or into their partner covariate;
        vanishing and duplicated columns are dropped so the reduced matrix
        stays full rank on the arm.
        """
        reduced: list[Term] = []
        seen: set[tuple] = set()

        def push(term: Term | None):
            if term is None:
                return
            key = term._canonical()
            if key not in seen:
                seen.add(key)
                reduced.append(term)

        for term in self.terms:
            if "e" not in term.refs:
                push(term)
            elif term.kind == "covariate":
                push(Term("intercept") if e_value != 0 else None)
            elif term.kind == "square":
                push(Term("intercept") if e_value != 0 else None)
            elif term.kind == "product":
                other = term.refs[0] if term.refs[1] == "e" else term.refs[1]
                push(Term("covariate", (other,)) if e_value != 0 else None)
        if not reduced:
            raise DataError("design reduces to nothing when E is held fixed")
        return DesignSpec(tuple(reduced))


@dataclass(frozen=True)
class Overrides:
    """Counterfactual column overrides applied before term evaluation.

    ``e`` and ``m`` accept a scalar or a per-record vector; ``c1`` accepts a
    ``(d1,)`` vector or an ``(n, d1)`` matrix.
    """

    e: float | np.ndarray | None = None
    m: float | np.ndarray | None = None
    c1: np.ndarray | None = None


_EMPTY_OVERRIDES = Overrides()


def _column(dataset: Dataset, ref: str, overrides: Overrides, n: int) -> np.ndarray:
    if ref == "e":
        if overrides.e is not None:
            return np.broadcast_to(np.asarray(overrides.e, dtype=float), (n,))
        return dataset.e.astype(float)
    if ref == "m":
        if overrides.m is not None:
            return np.broadcast_to(np.asarray(overrides.m, dtype=float), (n,))
        return dataset.m
    if ref.startswith("c0_"):
        j = int(ref[3:])
        if j > dataset.d0:
            raise DataError(f"column reference {ref} exceeds c0 dimension {dataset.d0}")
        return dataset.c0[:, j - 1]
    j = int(ref[3:])
    if overrides.c1 is not None:
        c1 = np.asarray(overrides.c1, dtype=float)
        if c1.ndim == 1:
            if j > c1.shape[0]:
                raise DataError(f"column reference {ref} exceeds c1 override dimension {c1.shape[0]}")
            return np.full(n, c1[j - 1])
        if j > c1.shape[1]:
            raise DataError(f"column reference {ref} exceeds c1 override dimension {c1.shape[1]}")
        return c1[:, j - 1]
    if j > dataset.d1:
        raise DataError(f"column reference {ref} exceeds c1 dimension {dataset.d1}")
    return dataset.c1[:, j - 1]


def build_design_matrix(dataset: Dataset, spec: DesignSpec, overrides: Overrides | None = None) -> np.ndarray:
    """Evaluate the design spec on every record, after applying overrides."""
    overrides = overrides or _EMPTY_OVERRIDES
    n = dataset.n
    cols = np.empty((n, len(spec.terms)))
    cache: dict[str, np.ndarray] = {}

    def col(ref: str) -> np.ndarray:
        if ref not in cache:
            cache[ref] = _column(dataset, ref, overrides, n)
        return cache[ref]

    for k, term in enumerate(spec.terms):
        if term.kind == "intercept":
            cols[:, k] = 1.0
        elif term.kind == "covariate":
            cols[:, k] = col(term.refs[0])
        elif term.kind == "square":
            cols[:, k] = col(term.refs[0]) ** 2
        else:
            cols[:, k] = col(term.refs[0]) * col(term.refs[1])
    return cols


# ---------------------------------------------------------------------------
# CSV interchange

_FLOAT_FORMAT = "%.17g"  # round-trips IEEE doubles exactly
_LEVEL_PATTERN = re.compile(r"^[0-9]+$")


def _header(d0: int, d1: int) -> list[str]:
    return (
        [f"c0_{j}" for j in range(1, d0 + 1)]
        + ["e"]
        + [f"c1_{j}" for j in range(1, d1 + 1)]
        + ["m", "y"]
    )


def write_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the canonical column layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(dataset.d0, dataset.d1))
        for i in range(dataset.n):
            row = (
                [_FLOAT_FORMAT % v for v in dataset.c0[i]]
                + [str(int(dataset.e[i]))]
                + [_FLOAT_FORMAT % v for v in dataset.c1[i]]
                + [_FLOAT_FORMAT % dataset.m[i], _FLOAT_FORMAT % dataset.y[i]]
            )
            writer.writerow(row)


def read_csv(path, *, ignore_extra: bool = False) -> Dataset:
    """Read a dataset; header must follow ``c0_1..c0_d0, e, c1_1..c1_d1, m, y``.

    Unknown columns are an error unless ``ignore_extra`` is set.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        known = {"e", "m", "y"}
        extras = [h for h in header if h not in known and not _REF_PATTERN.match(h)]
        if extras and not ignore_extra:
            raise DataError(f"{path}: unexpected column(s) {extras}; pass ignore_extra to skip them")
        positions: dict[str, int] = {}
        for idx, name in enumerate(header):
            if name in known or _REF_PATTERN.match(name):
                if name in positions:
                    raise DataError(f"{path}: duplicate column {name!r}")
                positions[name] = idx
        for required in ("e", "m", "y"):
            if required not in positions:
                raise DataError(f"{path}: missing required column {required!r}")
        d0 = sum(1 for name in positions if name.startswith("c0_"))
        d1 = sum(1 for name in positions if name.startswith("c1_"))
        for j in range(1, d0 + 1):
            if f"c0_{j}" not in positions:
                raise DataError(f"{path}: c0 columns must be contiguous; missing c0_{j}")
        for j in range(1, d1 + 1):
            if f"c1_{j}" not in positions:
                raise DataError(f"{path}: c1 columns must be contiguous; missing c1_{j}")

        c0_at = [positions[f"c0_{j}"] for j in range(1, d0 + 1)]
        c1_at = [positions[f"c1_{j}"] for j in range(1, d1 + 1)]
        e_at, m_at, y_at = positions["e"], positions["m"], positions["y"]
        c0, e, c1, m, y = [], [], [], [], []
        for i, raw in enumerate(reader):
            if not raw:
                continue
            try:
                c0_i = [float(raw[k]) for k in c0_at]
                c1_i = [float(raw[k]) for k in c1_at]
                e_i = raw[e_at].strip()
                m_i = float(raw[m_at])
                y_i = float(raw[y_at])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {i}: {exc}") from None
            if not _LEVEL_PATTERN.match(e_i):
                raise DataError(f"{path}: row {i}: treatment level {e_i!r} is not a non-negative integer")
            c0 += c0_i
            e.append(int(e_i))
            c1 += c1_i
            m.append(m_i)
            y.append(y_i)
    n = len(e)
    if not n:
        raise DataError(f"{path}: no data rows")
    return dataset_from_arrays(np.reshape(c0, (n, d0)), e, np.reshape(c1, (n, d1)), m, y)
