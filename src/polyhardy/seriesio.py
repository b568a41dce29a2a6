"""JSON serialization for power and Dirichlet series.

Documents look like::

    {"series": "power", "kind": "vector", "dim": 2,
     "terms": [{"alpha": [2, 1], "coeff": [[1.0, 0.0], [0.5, -0.25]]}]}

``series`` is ``"power"`` or ``"dirichlet"``.  Power-series terms carry
an ``alpha`` exponent list, Dirichlet terms an integer ``n``, and they
must agree with ``series``; a document without ``series`` takes its type
from its terms.  Each complex number is a ``[re, im]`` pair, so a vector
coefficient is a length-d list of pairs and an operator coefficient a
d x d nest.  Parsing failures raise :class:`SeriesFormatError` with a
message naming the specific defect.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dirichlet import DirichletSeries
from .series import PowerSeries, _SparseSeries

__all__ = [
    "SeriesFormatError",
    "dump_series",
    "load_series",
    "save_series",
    "series_from_dict",
    "series_to_dict",
]

AnySeries = _SparseSeries


class SeriesFormatError(ValueError):
    """A series document violates the schema."""


def _is_int(value) -> bool:
    """Whether a parsed JSON value is an integer: JSON's true and false parse
    to Python bools, which ``isinstance(value, int)`` would let through."""
    return isinstance(value, int) and not isinstance(value, bool)


def _coeff_to_json(coeff: np.ndarray) -> list:
    return np.stack([coeff.real, coeff.imag], axis=-1).tolist()


def _coeff_from_json(obj, kind: str, dim: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SeriesFormatError(f"coefficient at {where} is not numeric: {exc}") from exc
    expected = (dim, 2) if kind == "vector" else (dim, dim, 2)
    if arr.shape != expected:
        raise SeriesFormatError(
            f"coefficient at {where} has shape {arr.shape}, expected {expected} "
            f"for a {kind} series of dimension {dim}"
        )
    if not np.isfinite(arr).all():
        raise SeriesFormatError(f"coefficient at {where} contains non-finite numbers")
    # numpy reads true, false and numeric strings as numbers; JSON does not
    for entry in np.asarray(obj, dtype=object).flat:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise SeriesFormatError(f"coefficient at {where} is not numeric: {entry!r}")
    return arr[..., 0] + 1j * arr[..., 1]


def series_to_dict(series: AnySeries) -> dict:
    """Schema document for a series; terms are emitted in canonical order."""
    if isinstance(series, PowerSeries):
        which = "power"
        terms = [
            {"alpha": list(alpha.exponents), "coeff": _coeff_to_json(series.terms[alpha])}
            for alpha in series.support
        ]
    elif isinstance(series, DirichletSeries):
        which = "dirichlet"
        terms = [
            {"n": n, "coeff": _coeff_to_json(series.terms[n])}
            for n in series.frequencies
        ]
    else:
        raise TypeError(f"not a series: {type(series).__name__}")
    return {"series": which, "kind": series.kind, "dim": series.dim, "terms": terms}


def series_from_dict(doc: object) -> AnySeries:
    """Parse a schema document into the matching series type.

    The ``series`` field, ``"power"`` or ``"dirichlet"``, names the type;
    terms that contradict it raise ``SeriesFormatError``.  Without it,
    terms with ``alpha`` build a power series, terms with ``n`` a
    Dirichlet series, and a term-less document parses as an empty power
    series.
    """
    if not isinstance(doc, dict):
        raise SeriesFormatError("series document must be a JSON object")
    missing = {"kind", "dim", "terms"} - doc.keys()
    if missing:
        raise SeriesFormatError(f"series document is missing fields: {sorted(missing)}")
    which = doc.get("series")
    if which not in (None, "power", "dirichlet"):
        raise SeriesFormatError(f"series must be 'power' or 'dirichlet', got {which!r}")
    kind = doc["kind"]
    if kind not in ("vector", "operator"):
        raise SeriesFormatError(f"kind must be 'vector' or 'operator', got {kind!r}")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 1:
        raise SeriesFormatError(f"dim must be a positive integer, got {dim!r}")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list):
        raise SeriesFormatError("terms must be a list")

    power_terms: list[tuple] = []
    dirichlet_terms: list[tuple] = []
    for i, entry in enumerate(raw_terms):
        where = f"terms[{i}]"
        if not isinstance(entry, dict) or "coeff" not in entry:
            raise SeriesFormatError(f"{where} must be an object with a 'coeff' field")
        has_alpha = "alpha" in entry
        has_n = "n" in entry
        if has_alpha == has_n:
            raise SeriesFormatError(
                f"{where} must carry exactly one of 'alpha' (power series) or "
                "'n' (Dirichlet series)"
            )
        coeff = _coeff_from_json(entry["coeff"], kind, dim, where)
        if has_alpha:
            alpha = entry["alpha"]
            if not isinstance(alpha, list) or not all(
                _is_int(e) and e >= 0 for e in alpha
            ):
                raise SeriesFormatError(
                    f"{where}.alpha must be a list of non-negative integers"
                )
            power_terms.append((alpha, coeff))
        else:
            n = entry["n"]
            if not _is_int(n) or n < 1:
                raise SeriesFormatError(f"{where}.n must be a positive integer")
            dirichlet_terms.append((n, coeff))

    if power_terms and dirichlet_terms:
        raise SeriesFormatError("document mixes 'alpha' terms with 'n' terms")
    found = "dirichlet" if dirichlet_terms else "power" if power_terms else which
    if which is not None and found != which:
        raise SeriesFormatError(f"series is {which!r} but the terms are {found} terms")
    if found == "dirichlet":
        return DirichletSeries(kind, dim, dirichlet_terms)
    return PowerSeries(kind, dim, power_terms)


def dump_series(series: AnySeries) -> str:
    return json.dumps(series_to_dict(series), indent=2)


def save_series(series: AnySeries, path: str | Path) -> None:
    Path(path).write_text(dump_series(series) + "\n", encoding="utf-8")


def load_series(path: str | Path) -> AnySeries:
    """Load a series file; save -> load is the identity."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SeriesFormatError(f"cannot read series file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeriesFormatError(f"malformed JSON in {path}: {exc}") from exc
    return series_from_dict(doc)
