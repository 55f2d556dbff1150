"""Scalar reference implementations the production paths are checked
against.

Each module here is the plain one-decision-at-a-time form of a
sparsifier whose production implementation in ``src/`` is vectorised or
fused.  No library code imports them; tests and benchmarks do, and gate
the fast paths on them bit for bit (or, where the order of operations
differs, on the converged ``D_1`` within 1e-6):

- :mod:`oracles.rules` — the closed-form GDB update rules (Eq. 8,
  13-16), scalar and per-array;
- :mod:`oracles.gdb` — the clamp-and-attenuate step of Algorithm 2, the
  edge-id-order refinement loop, and the colored-sweep reference;
- :mod:`oracles.emd` — EMD's insertion probability (Eq. 9), gain
  (Eq. 10), brute-force E-phase and the whole of Algorithm 3;
- :mod:`oracles.ni` — Algorithm 4 re-peeling its forests per call.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir
insertion) and for the benchmarks (``benchmarks/conftest.py``), so they
import as ``oracles``.
"""
