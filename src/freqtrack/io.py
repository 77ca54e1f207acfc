"""CSV and key-value file formats used by the command line tools."""

from __future__ import annotations

import csv
from pathlib import Path

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


def read_dataset_csv(path) -> DataSet:
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t", "n", "re", "im"]:
                raise DataFormatError(f"{path}: expected header t,n,re,im, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 4:
                    raise DataFormatError(f"{path}: bad row {row}")
                rows.append((int(row[0]), int(row[1]), float(row[2]), float(row[3])))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, DataFormatError):
            raise
        raise DataFormatError(f"{path}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no sample rows")
    n_bins = max(r[0] for r in rows)
    n_samples = max(r[1] for r in rows)
    if len(rows) != n_bins * n_samples:
        raise DataFormatError(f"{path}: expected {n_bins * n_samples} rows, got {len(rows)}")
    samples = np.full((n_bins, n_samples), np.nan + 0j)
    for t, n, re, im in rows:
        samples[t - 1, n - 1] = re + 1j * im
    if np.any(np.isnan(samples.real)):
        raise DataFormatError(f"{path}: missing (t, n) entries")
    return DataSet(samples=samples)


def write_track_csv(path, track) -> None:
    """Rows `t,nu` with t in 1..T."""
    track = np.asarray(track, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "nu"])
        for t, nu in enumerate(track, start=1):
            writer.writerow([t, repr(float(nu))])


def read_track_csv(path) -> np.ndarray:
    values = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["t", "nu"]:
                raise DataFormatError(f"{path}: expected header t,nu, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise DataFormatError(f"{path}: bad row {row}")
                t, nu = int(row[0]), float(row[1])
                if t in values:
                    raise DataFormatError(f"{path}: duplicate bin index {t}")
                if not np.isfinite(nu):
                    raise DataFormatError(f"{path}: non-finite nu {row[1]!r} at bin {t}")
                values[t] = nu
    except (ValueError, TypeError) as exc:
        if isinstance(exc, DataFormatError):
            raise
        raise DataFormatError(f"{path}: {exc}") from exc
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
            out[key.strip()] = value.strip()
    return out
