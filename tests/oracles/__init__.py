"""Scalar reference implementations the production paths are checked
against.

Each module here is the plain one-decision-at-a-time (or one world at a
time) form of a layer whose production implementation in ``src/`` is
vectorised or fused.  No library code imports them; tests and
benchmarks do, and gate the fast paths on them bit for bit (or, where
the order of operations differs, on the converged ``D_1`` within 1e-6
or distances within ``rtol=1e-9``):

- :mod:`oracles.rules` — the closed-form GDB update rules (Eq. 8,
  13-16), scalar and per-array, with the state's endpoint and residual
  lookups;
- :mod:`oracles.gdb` — the clamp-and-attenuate step of Algorithm 2, the
  edge-id-order refinement loop, the colored-sweep reference, and the
  dict-based greedy colorings of a fresh and of an extended sweep plan;
- :mod:`oracles.emd` — EMD's insertion probability (Eq. 9), gain
  (Eq. 10), brute-force E-phase and the whole of Algorithm 3;
- :mod:`oracles.incidence` — the vertex-to-edge CSR incidence the
  EMD, GDB and extend oracles walk (the state keeps none);
- :mod:`oracles.backbone` — Algorithm 1 re-peeling its spanning forests
  per call, with the set-based Monte-Carlo top-up;
- :mod:`oracles.unionfind` — the scalar union-find the backbone, NI and
  graph oracles run on;
- :mod:`oracles.ni` — Algorithm 4 re-peeling its forests per call;
- :mod:`oracles.worlds` — one possible world as its own CSR
  (:class:`~oracles.worlds.World`) and the one-world draws;
- :mod:`oracles.queries` — every query answered on one world, and
  per-world PageRank;
- :mod:`oracles.kernels` — the boolean-frontier BFS and per-world
  Dijkstra the packed BFS and delta-stepping kernels are held to;
- :mod:`oracles.heap` — the indexed max-heap Dijkstra runs on;
- :mod:`oracles.estimators` — the Monte-Carlo, variance, adaptive and
  stratified estimators as world-at-a-time loops;
- :mod:`oracles.exact` — Eq. (1) enumeration over
  :class:`~oracles.worlds.World` callbacks.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir
insertion) and for the benchmarks (``benchmarks/conftest.py``), so they
import as ``oracles``.
"""
