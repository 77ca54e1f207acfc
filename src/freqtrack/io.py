"""CSV and key-value file formats used by the command line tools."""

from __future__ import annotations

import warnings

import numpy as np

from freqtrack.signal import DataSet


class DataFormatError(ValueError):
    """Malformed or inconsistent input file."""


def _write_rows(path, header: str, rows) -> None:
    """The header, then the rows (each ending CRLF, floats as repr: the bytes
    csv.writer gives) streamed: joined into one string, the rows of a T=4096,
    N=4 dataset peak at 2.5 MB of Python objects, against 0.03 MB."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)


def write_dataset_csv(path, dataset: DataSet) -> None:
    """Rows `t,n,re,im` with t in 1..T and n in 1..N."""
    _write_rows(path, "t,n,re,im", (f"{t},{n},{value.real!r},{value.imag!r}\r\n"
                                    for t, record in enumerate(dataset.samples, start=1)
                                    for n, value in enumerate(record.tolist(), start=1)))


def _read_rows(path, header: str, dtype: list) -> np.ndarray:
    """The rows after the header line of a CSV file, parsed by one
    np.loadtxt call into a structured array of this dtype; blank lines are
    skipped.  A wrong header, a row with the wrong column count, a field
    that does not parse (an integer column takes only integer literals) and
    a byte that is not ASCII, before np.loadtxt's parser (which can crash on
    characters beyond the Basic Multilingual Plane) sees it, all become
    DataFormatError."""
    try:
        with open(path, encoding="ascii") as fh:
            found = fh.readline().rstrip("\r\n")
            if found != header:
                raise ValueError(f"expected header {header}, got {found!r}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_dataset_csv(path) -> DataSet:
    rows = _read_rows(path, "t,n,re,im",
                      [("t", np.int64), ("n", np.int64), ("re", float), ("im", float)])
    if not rows.size:
        raise DataFormatError(f"{path}: no sample rows")
    t, n = rows["t"], rows["n"]
    if t.min() < 1 or n.min() < 1:
        raise DataFormatError(f"{path}: indices must be at least 1, got t={t.min()}, "
                              f"n={n.min()}")
    n_bins, n_samples = int(t.max()), int(n.max())
    if rows.size != n_bins * n_samples:
        raise DataFormatError(f"{path}: expected {n_bins * n_samples} rows, got {rows.size}")
    samples = np.full((n_bins, n_samples), np.nan + 0j)
    samples.real[t - 1, n - 1] = rows["re"]
    samples.imag[t - 1, n - 1] = rows["im"]
    if np.any(np.isnan(samples.real)):
        raise DataFormatError(f"{path}: missing (t, n) entries")
    return DataSet(samples=samples)


def write_track_csv(path, track) -> None:
    """Rows `t,nu` with t in 1..T."""
    _write_rows(path, "t,nu", (f"{t},{nu!r}\r\n" for t, nu
                               in enumerate(np.asarray(track, dtype=float).tolist(), start=1)))


def read_track_csv(path) -> np.ndarray:
    rows = _read_rows(path, "t,nu", [("t", np.int64), ("nu", float)])
    order = np.argsort(rows["t"], kind="stable")
    t, nu = rows["t"][order], rows["nu"][order]
    repeated = t[1:][t[1:] == t[:-1]]
    if repeated.size:
        raise DataFormatError(f"{path}: duplicate bin index {repeated[0]}")
    finite = np.isfinite(nu)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataFormatError(f"{path}: non-finite nu {float(nu[bad])!r} at bin {t[bad]}")
    if not t.size or not np.array_equal(t, np.arange(1, t.size + 1)):
        raise DataFormatError(f"{path}: bin indices must be 1..T")
    return nu


def write_key_values(path, mapping: dict) -> None:
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key}={value}\n")


def read_key_values(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}: expected key=value lines, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise DataFormatError(f"{path}: duplicate key {key!r}")
            out[key] = value.strip()
    return out
