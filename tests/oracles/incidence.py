"""Vertex-to-edge incidence of a sparsification state, for the oracles.

:class:`~repro.core.discrepancy.SparsificationState` keeps no incidence:
the production sweeps and EMD's candidate table work from the edge
endpoint arrays.  The scalar EMD, GDB and extend oracles walk a vertex's
incident edges one at a time, so they build the CSR here.
"""

from __future__ import annotations

import numpy as np

from repro.core.discrepancy import SparsificationState


class Incidence:
    """CSR incidence of a state's current edges.

    ``inc_indptr`` (``n + 1``) and ``inc_eids`` (``2 m``, ascending edge
    ids per vertex), both read-only.  Built with array ops: a stable
    argsort of the flattened endpoint column groups entries by vertex,
    and within a vertex ascending flat index means ascending edge id
    (flat position ``2 eid`` / ``2 eid + 1``).  A snapshot: build a new
    one after a structural ``apply_delta`` renumbers the edges.
    """

    def __init__(self, state: SparsificationState) -> None:
        flat = state.edge_vertices.reshape(-1)
        order = np.argsort(flat, kind="stable")
        self.inc_eids = order // 2
        self.inc_eids.setflags(write=False)
        counts = np.bincount(flat, minlength=state.n)
        self.inc_indptr = np.zeros(state.n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.inc_indptr[1:])
        self.inc_indptr.setflags(write=False)

    def incident_edges(self, vertex: int) -> np.ndarray:
        """Ids of the edges incident to dense vertex ``vertex``: a
        read-only CSR slice, in ascending edge-id order."""
        return self.inc_eids[self.inc_indptr[vertex]:self.inc_indptr[vertex + 1]]
