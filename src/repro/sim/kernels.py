"""Compiled simulation kernels behind a two-backend registry.

The batch engine (:mod:`repro.sim.batch`) advances every instance of a
bucket by one port message per Python loop iteration -- ~15 tiny numpy
calls over a flat state vector.  At paper scale the arrays are short
enough that interpreter/dispatch overhead dominates, so this module
compiles the two hot recurrences as **whole-run kernels**: one call
consumes the dense per-step arrays and advances *all* steps of a bucket
inside compiled code.  The numpy per-step path remains the bit-identical
equivalence oracle (the kernels perform the same IEEE-754 operations in
the same per-instance order, so results match exactly -- the equivalence
walls pin this).

Backends
--------

``numpy``
    No kernel at all: :class:`~repro.sim.batch.BatchEngine` keeps its
    per-step numpy loops.  Always available; the oracle and the default.
``c``
    ``BatchEngine._step_strict`` / ``_step_ready`` transcribed per
    instance into a small C file, built once with the system C compiler
    (``-O2 -ffp-contract=off``) into a cached shared library and driven
    through :mod:`ctypes`.  Needs a working ``cc``/``gcc``/``clang`` (or
    ``$CC``).

Selection: the ``REPRO_KERNEL`` environment variable names the backend
every simulation uses (default ``numpy``).  The sim entry points
(``fast_simulate``, ``BatchEngine``, ``batch_outcomes``, ...) also take a
``kernel=`` argument -- a backend name, a :class:`KernelBackend`, or
``None`` for the environment -- so tests can pit C against the oracle.
Unknown names raise :class:`ValueError`; a backend that cannot run here
(no compiler, failed build) falls back to numpy with a single warning per
process.

Kernels take an explicit ``t0``/``t1`` step window, so
``BatchEngine.run(max_steps=)``, ``checkpoint()/restore()`` and the
shared-prefix incremental search all keep working under a compiled
backend: the engine simply asks the kernel to advance the window it would
otherwise have stepped through in Python.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..obs import counter, stopwatch, trace

__all__ = [
    "KERNEL_NAMES",
    "KERNEL_ENV",
    "KernelBackend",
    "KernelUnavailable",
    "available_backends",
    "get_backend",
    "resolve_kernel",
]

#: Environment variable naming the backend for ``kernel=None``.
KERNEL_ENV = "REPRO_KERNEL"

#: Registered backend names, in documentation order.
KERNEL_NAMES = ("numpy", "c")

#: ``PolicyKeySpec`` field name -> integer code interpreted by the ready
#: kernels (the spec's field order is preserved; codes index the branch
#: inside the kernel's tie-break loop).
FIELD_CODES = {"head_cid": 0, "legal_start": 1, "worker_index": 2}


class KernelUnavailable(RuntimeError):
    """The requested backend cannot run in this environment."""


# ----------------------------------------------------------------------
# the kernels, in C
#
# strict_run / ready_run transcribe ``BatchEngine._step_strict`` /
# ``_step_ready`` per instance: every floating-point op mirrors the numpy
# per-step path in per-instance order, so the backends are bit-identical.
# Array layouts are the engine's: ``lengths`` is descending (instance b
# is live while t < lengths[b]), ``S`` is the flat state vector (S[0]
# frozen 0.0), strict arrays are (T, B) row-major, ready arrays (B, P).
# ----------------------------------------------------------------------
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define RMAX(a, b) ((a) > (b) ? (a) : (b))

void strict_run(int64_t t0, int64_t t1, int64_t B,
                const int64_t *restrict lengths,
                const int64_t *restrict d_legal,
                const int64_t *restrict d_ce,
                const int64_t *restrict d_ring,
                const double *restrict d_comm,
                const double *restrict d_comp,
                const uint8_t *restrict d_round,
                const uint8_t *restrict d_cret,
                double *restrict S,
                double *restrict port_free,
                double *restrict port_busy)
{
    int64_t n_act = B;
    for (int64_t t = t0; t < t1; t++) {
        while (n_act > 0 && lengths[n_act - 1] <= t) n_act--;
        const int64_t *leg = d_legal + t * B;
        const int64_t *cea = d_ce + t * B;
        const int64_t *ring = d_ring + t * B;
        const double *comm = d_comm + t * B;
        const double *comp = d_comp + t * B;
        const uint8_t *rnd = d_round + t * B;
        const uint8_t *cret = d_cret + t * B;
        for (int64_t b = 0; b < n_act; b++) {
            double legal = S[leg[b]];
            double pf = port_free[b];
            double start = RMAX(pf, legal);
            double end = start + comm[b];
            port_free[b] = end;
            port_busy[b] += end - start;
            if (rnd[b]) {
                int64_t cei = cea[b];
                double cs = RMAX(end, S[cei]);
                double ce = cs + comp[b];
                S[ring[b]] = ce;
                S[cei] = ce;
                S[cei + 1] += ce - cs;
            } else if (cret[b]) {
                S[cea[b] - 1] = end;
            }
        }
    }
}

void ready_run(int64_t t0, int64_t t1, int64_t B, int64_t P,
               const int64_t *restrict lengths,
               int64_t *restrict ptr,
               const int64_t *restrict endp,
               const int64_t *restrict seg,
               double *restrict head_legal,
               double *restrict head_cid,
               const int8_t *restrict f_kind,
               const double *restrict f_comm,
               const double *restrict f_comp,
               const double *restrict f_cid,
               const int64_t *restrict f_legal,
               const int64_t *restrict f_ring,
               int64_t n_fields,
               const int64_t *restrict fields,
               double *restrict S,
               double *restrict port_free,
               double *restrict port_busy)
{
    int64_t n_act = B;
    for (int64_t t = t0; t < t1; t++) {
        while (n_act > 0 && lengths[n_act - 1] <= t) n_act--;
        for (int64_t b = 0; b < n_act; b++) {
            const double pf = port_free[b];
            double *hl = head_legal + b * P;
            double *hc = head_cid + b * P;
            /* lexicographic argmin over (effective start, spec fields);
               ascending scan with strict improvement == the numpy masked
               argmin (ties resolve to the lowest worker index) */
            int64_t best = 0;
            double v = hl[0];
            double best_eff = RMAX(pf, v);
            for (int64_t i = 1; i < P; i++) {
                v = hl[i];
                double eff = RMAX(pf, v);
                if (eff < best_eff) { best = i; best_eff = eff; continue; }
                if (eff > best_eff) continue;
                for (int64_t k = 0; k < n_fields; k++) {
                    int64_t f = fields[k];
                    double vi, vb;
                    if (f == 0) { vi = hc[i]; vb = hc[best]; }
                    else if (f == 1) { vi = hl[i]; vb = hl[best]; }
                    else break;  /* worker_index: the incumbent is lower */
                    if (vi < vb) { best = i; break; }
                    if (vi > vb) break;
                }
            }
            int64_t off = b * P + best;
            int64_t mp = ptr[off];
            double end = best_eff + f_comm[mp];
            port_free[b] = end;
            port_busy[b] += end - best_eff;
            int8_t kind = f_kind[mp];
            if (kind == 2) {          /* ROUND */
                int64_t cei = seg[off] + 1;
                double cs = RMAX(end, S[cei]);
                double ce = cs + f_comp[mp];
                S[f_ring[mp]] = ce;
                S[cei] = ce;
                S[cei + 1] += ce - cs;
            } else if (kind == 3) {   /* C_RETURN */
                S[seg[off]] = end;
            }
            int64_t nxt = mp + 1;
            ptr[off] = nxt;
            if (nxt < endp[off]) {
                hl[best] = S[f_legal[nxt]];
                hc[best] = f_cid[nxt];
            } else {
                hl[best] = INFINITY;
                hc[best] = INFINITY;
            }
        }
    }
}
"""


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class KernelBackend:
    """One entry of the kernel registry.

    ``whole_run`` backends advance a batch through a ``[t0, t1)`` step
    window in a single :meth:`strict_run` / :meth:`ready_run` call; the
    numpy backend sets it ``False`` and the engine keeps its per-step
    loops.  :meth:`ensure_ready` performs any one-time compile/load work
    (the C build); :func:`get_backend` calls it, so a build failure marks
    the backend unavailable instead of surfacing mid-simulation.
    """

    #: registry name
    name: str = "?"
    #: the engine should call the whole-run kernels instead of stepping
    whole_run: bool = True

    def ensure_ready(self) -> None:
        """Compile/load everything this backend needs (idempotent)."""

    def strict_run(self, *args) -> None:
        raise NotImplementedError

    def ready_run(self, *args) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<kernel backend {self.name!r}>"


class NumpyBackend(KernelBackend):
    """The oracle: no kernel, the engine keeps its per-step numpy loops."""

    name = "numpy"
    whole_run = False


class CBackend(KernelBackend):
    """The C kernels, built once with the system compiler and driven
    through :mod:`ctypes`.

    The shared library is cached under ``REPRO_KERNEL_CACHE`` (default
    ``~/.cache/repro-mm/kernels``), keyed on a hash of the C source, so
    one build serves every process; an unwritable cache falls back to a
    per-process temporary directory.  ``-ffp-contract=off`` forbids
    FMA contraction, keeping every add/multiply a distinct IEEE-754
    operation exactly as numpy performs them.
    """

    name = "c"

    def __init__(self) -> None:
        import shutil

        cc = os.environ.get("CC")
        self._cc = (
            shutil.which(cc)
            if cc
            else shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        )
        if not self._cc:
            raise KernelUnavailable(
                f"the c kernel backend needs a C compiler ({cc or 'cc/gcc/clang'}) on PATH"
            )
        self._lib = None

    # -- build ----------------------------------------------------------
    def _cache_dir(self) -> str:
        configured = os.environ.get("REPRO_KERNEL_CACHE")
        if configured:
            return configured
        return os.path.join(
            os.path.expanduser("~"), ".cache", "repro-mm", "kernels"
        )

    def _build(self):
        import ctypes
        import hashlib
        import subprocess
        import tempfile

        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        so_name = f"repro_kernels_{digest}.so"

        def compile_into(directory: str) -> str:
            os.makedirs(directory, exist_ok=True)
            so_path = os.path.join(directory, so_name)
            if not os.path.exists(so_path):
                c_path = os.path.join(directory, f".build_{os.getpid()}.c")
                tmp_so = os.path.join(directory, f".build_{os.getpid()}.so")
                with open(c_path, "w") as fh:
                    fh.write(_C_SOURCE)
                try:
                    subprocess.run(
                        [
                            self._cc,
                            "-O2",
                            "-ffp-contract=off",
                            "-fPIC",
                            "-shared",
                            c_path,
                            "-o",
                            tmp_so,
                        ],
                        check=True,
                        capture_output=True,
                        text=True,
                    )
                    os.replace(tmp_so, so_path)  # atomic vs concurrent builds
                finally:
                    for path in (c_path, tmp_so):
                        try:
                            os.remove(path)
                        except OSError:
                            pass
            return so_path

        try:
            try:
                so_path = compile_into(self._cache_dir())
            except OSError:
                # unwritable cache dir: build into a process-private tempdir
                so_path = compile_into(tempfile.mkdtemp(prefix="repro-kernels-"))
            lib = ctypes.CDLL(so_path)
        except (subprocess.CalledProcessError, OSError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise KernelUnavailable(
                f"C kernel compilation failed with {self._cc}: {detail}"
            ) from exc
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.strict_run.restype = None
        lib.strict_run.argtypes = [i64, i64, i64] + [ptr] * 11
        lib.ready_run.restype = None
        lib.ready_run.argtypes = [i64, i64, i64, i64] + [ptr] * 12 + [i64] + [ptr] * 4
        return lib

    def ensure_ready(self) -> None:
        if self._lib is None:
            with trace("kernel.build", backend=self.name), stopwatch(
                "kernel.build_seconds"
            ):
                self._lib = self._build()

    # -- dispatch -------------------------------------------------------
    @staticmethod
    def _p(arr: np.ndarray, dtype):
        assert arr.dtype == dtype and arr.flags.c_contiguous
        import ctypes

        return ctypes.c_void_p(arr.ctypes.data)

    def strict_run(
        self, t0, t1, B, lengths, d_legal, d_ce, d_ring, d_comm, d_comp,
        d_round, d_cret, S, port_free, port_busy,
    ) -> None:
        p, f8, i8 = self._p, np.float64, np.int64
        self._lib.strict_run(
            t0, t1, B,
            p(lengths, i8), p(d_legal, i8), p(d_ce, i8), p(d_ring, i8),
            p(d_comm, f8), p(d_comp, f8),
            p(d_round.view(np.uint8), np.uint8), p(d_cret.view(np.uint8), np.uint8),
            p(S, f8), p(port_free, f8), p(port_busy, f8),
        )

    def ready_run(
        self, t0, t1, B, P, lengths, ptr, endp, seg, head_legal, head_cid,
        f_kind, f_comm, f_comp, f_cid, f_legal, f_ring, fields,
        S, port_free, port_busy,
    ) -> None:
        p, f8, i8 = self._p, np.float64, np.int64
        self._lib.ready_run(
            t0, t1, B, P,
            p(lengths, i8), p(ptr, i8), p(endp, i8), p(seg, i8),
            p(head_legal, f8), p(head_cid, f8),
            p(f_kind, np.int8), p(f_comm, f8), p(f_comp, f8), p(f_cid, f8),
            p(f_legal, i8), p(f_ring, i8),
            int(fields.shape[0]), p(fields, i8),
            p(S, f8), p(port_free, f8), p(port_busy, f8),
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_FACTORIES = {"numpy": NumpyBackend, "c": CBackend}
_instances: dict[str, KernelBackend] = {}
_failures: dict[str, str] = {}
_warned: set[str] = set()


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name``.

    Raises :class:`ValueError` for unknown names and
    :class:`KernelUnavailable` when the backend cannot run here (no C
    compiler, failed build).  The first request builds the backend
    (:meth:`KernelBackend.ensure_ready`); instances are cached per
    process, and so are unavailability verdicts.
    """
    if name not in _FACTORIES:
        raise ValueError(f"unknown kernel backend {name!r}; known: {KERNEL_NAMES}")
    backend = _instances.get(name)
    if backend is not None:
        return backend
    if name in _failures:
        raise KernelUnavailable(_failures[name])
    try:
        backend = _FACTORIES[name]()
        backend.ensure_ready()
    except KernelUnavailable as exc:
        _failures[name] = str(exc)
        raise
    _instances[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run in this environment
    (the first probe builds each backend; the C library build is cached
    on disk)."""
    out = []
    for name in KERNEL_NAMES:
        try:
            get_backend(name)
        except KernelUnavailable:
            continue
        out.append(name)
    return tuple(out)


def resolve_kernel(kernel=None) -> KernelBackend:
    """Resolve a ``kernel=`` parameter to a backend instance.

    ``None`` consults :data:`KERNEL_ENV` (``REPRO_KERNEL``) and defaults
    to ``"numpy"``; a :class:`KernelBackend` passes through, built first
    if it is not yet (:meth:`KernelBackend.ensure_ready`); a name is
    looked up in the registry.  A requested-but-unavailable backend falls
    back to numpy with one clear warning per process, so
    ``REPRO_KERNEL=c`` is safe to export on a machine without a working C
    compiler.
    """
    if isinstance(kernel, KernelBackend):
        kernel.ensure_ready()
        return kernel
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV, "").strip() or "numpy"
    try:
        return get_backend(kernel)
    except KernelUnavailable as exc:
        counter("kernel.fallback").inc()
        if kernel not in _warned:
            _warned.add(kernel)
            warnings.warn(
                f"kernel backend {kernel!r} is unavailable ({exc}); "
                "falling back to the numpy reference path",
                RuntimeWarning,
                stacklevel=2,
            )
        return get_backend("numpy")
