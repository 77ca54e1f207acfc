"""CSV and key-value file formats used by the command line tools."""

from __future__ import annotations

import csv

import numpy as np

from freqtrack.signal import DataSet


class DataFormatError(ValueError):
    """Malformed or inconsistent input file."""


def write_dataset_csv(path, dataset: DataSet) -> None:
    """Rows `t,n,re,im` with t in 1..T and n in 1..N, full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "re", "im"])
        for t in range(dataset.n_bins):
            for n in range(dataset.n_samples):
                value = dataset.samples[t, n]
                writer.writerow([t + 1, n + 1, repr(float(value.real)), repr(float(value.imag))])


def _read_rows(path, header: list[str], parse) -> list:
    """parse(row) for every non-blank row of a CSV file with this header.

    A wrong header, a row with the wrong column count and any ValueError
    raised by parse all become DataFormatError.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found != header:
                raise ValueError(f"expected header {','.join(header)}, got {found}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"bad row {row}")
                rows.append(parse(row))
    except (ValueError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return rows


def _parse_sample(row) -> tuple[int, int, complex]:
    t, n = int(row[0]), int(row[1])
    if t < 1 or n < 1:
        raise ValueError(f"indices must be at least 1, got t={t}, n={n}")
    return t, n, complex(float(row[2]), float(row[3]))


def read_dataset_csv(path) -> DataSet:
    rows = _read_rows(path, ["t", "n", "re", "im"], _parse_sample)
    if not rows:
        raise DataFormatError(f"{path}: no sample rows")
    n_bins = max(r[0] for r in rows)
    n_samples = max(r[1] for r in rows)
    if len(rows) != n_bins * n_samples:
        raise DataFormatError(f"{path}: expected {n_bins * n_samples} rows, got {len(rows)}")
    samples = np.full((n_bins, n_samples), np.nan + 0j)
    for t, n, value in rows:
        samples[t - 1, n - 1] = value
    if np.any(np.isnan(samples.real)):
        raise DataFormatError(f"{path}: missing (t, n) entries")
    return DataSet(samples=samples)


def write_track_csv(path, track) -> None:
    """Rows `t,nu` with t in 1..T, written at once: the bytes csv.writer
    gives, with CRLF line ends and repr(nu), which it never quotes."""
    rows = "".join(f"{t},{nu!r}\r\n"
                   for t, nu in enumerate(np.asarray(track, dtype=float).tolist(), start=1))
    with open(path, "w", newline="") as fh:
        fh.write("t,nu\r\n" + rows)


def read_track_csv(path) -> np.ndarray:
    rows = _read_rows(path, ["t", "nu"], lambda row: (int(row[0]), float(row[1])))
    values = {}
    for t, nu in rows:
        if t in values:
            raise DataFormatError(f"{path}: duplicate bin index {t}")
        if not np.isfinite(nu):
            raise DataFormatError(f"{path}: non-finite nu {nu!r} at bin {t}")
        values[t] = nu
    if not values or sorted(values) != list(range(1, len(values) + 1)):
        raise DataFormatError(f"{path}: bin indices must be 1..T")
    return np.array([values[t] for t in sorted(values)])


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
