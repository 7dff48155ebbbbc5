"""Row formatting for the tables zvortex writes.

Grid residuals, trajectories and the gradient-map geometry are formatted
from columns, not from row objects. A block of at most ``BLOCK_ROWS`` rows
is one ``%`` operation: the row template repeated once per row, applied to
the column values interleaved row by row. Bounding the block keeps the
strings alive at once small, however long the table.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

BLOCK_ROWS = 4096


def format_rows(template: str, columns: Sequence[np.ndarray],
                sep: str = "") -> Iterator[str]:
    """Yield the rows ``template % (c0[i], c1[i], ...)``, joined by ``sep``,
    in blocks of at most ``BLOCK_ROWS`` rows.

    The columns are numpy arrays of one length; object arrays of strings
    fill ``%s`` fields. Values pass through ``tolist()``, so ``%r`` of a
    float column prints the Python float's repr, as ``json`` does, and not
    ``np.float64(...)``. No separator is put between blocks.
    """
    width = len(columns)
    n = len(columns[0])
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        values = [None] * ((stop - start) * width)
        for j, column in enumerate(columns):
            values[j::width] = column[start:stop].tolist()
        yield sep.join([template] * (stop - start)) % tuple(values)
