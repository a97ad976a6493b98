"""Small shared helpers."""

import numpy as np


def ordered_sum(arr):
    """Sum in ascending index order (strict left fold).

    Global quantities are defined as the left-to-right sum of their
    per-element contributions so reported totals are bit-reproducible and
    independent of blocking.
    """
    a = np.asarray(arr, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    return float(np.cumsum(a)[-1])


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    return repr(float(v))


def _cells(vals):
    # an array block is converted in one call, not tested cell by cell
    if isinstance(vals, np.ndarray) and vals.dtype.kind == "f":
        return list(map(repr, vals.tolist()))
    if isinstance(vals, np.ndarray) and vals.dtype.kind in "biu":
        return list(map(str, map(int, vals.tolist())))
    return list(map(_cell, vals))


def write_csv(path, columns):
    """Write ``columns``, headers mapped to equal-length arrays or lists, in
    order, as a CSV table.  Float cells are ``repr(float(v))`` and read back
    bit for bit; integers and bools are ``str(int(v))``, ``None`` is empty."""
    cols = list(columns.values())
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        # by blocks of 1024 rows: a whole table as text would raise peak memory
        for lo in range(0, len(cols[0]), 1024):
            cells = [_cells(c[lo:lo + 1024]) for c in cols]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
