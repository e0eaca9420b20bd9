"""The row-loop reference for the command line's CSV reader.

cli._read_csv_pairs parses a t,value CSV with np.loadtxt and hands any
file loadtxt cannot read to a row loop.  This module keeps that loop as
it stood before loadtxt came in: every non-blank line stripped, a first
line whose first field is not a float skipped as a header, the first
two fields of each line converted by float(), then the finiteness
check.  Its arrays and its error messages are what the reader must
reproduce.
"""

import numpy as np


def read_csv_pairs(path: str):
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw:
        raise ValueError("input CSV is empty")
    start = 0
    first = raw[0].split(",")
    try:
        float(first[0])
    except ValueError:
        start = 1
    t, v = [], []
    for ln in raw[start:]:
        parts = ln.split(",")
        if len(parts) < 2:
            raise ValueError(f"expected two CSV columns, got {ln!r}")
        t.append(float(parts[0]))
        v.append(float(parts[1]))
    if len(t) < 2:
        raise ValueError("need at least two samples")
    t, v = np.asarray(t), np.asarray(v)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("input samples must be finite")
    return t, v
