"""Pluggable bit-plane kernel backends for the evaluation hot loops.

The kernel subsystem owns the three ``O(size(S) · q²)``-ish inner loops —
the Lemma 6.5 matrix build, the Lemma 4.5 boolean product and the
counting-table recurrence — plus the ``.prep`` word-section codec, behind
the narrow :class:`~repro.core.kernels.base.Kernel` interface.  Two
backends ship:

* ``"python"`` — :class:`~repro.core.kernels.base.PythonKernel`, the
  dependency-free reference (Python bigint rows);
* ``"numpy"`` — :class:`~repro.core.kernels.numpy_kernel.NumpyKernel`,
  which builds the planes of every rule in one contiguous uint64 array
  and computes a whole *level* of rules (the rules of one height, which
  never depend on each other) per batch: the Lemma 6.5 step as broadcast
  AND/any reductions over an ``(L, q, q)`` cube and the counting
  recurrence as one batched matrix product.  Stored ``.prep`` planes
  decode zero-copy through ``np.frombuffer``.

**Selection.**  ``resolve_kernel(None)`` / ``resolve_kernel("auto")``
auto-detects: the numpy backend when numpy is importable on a
little-endian host, the reference kernel otherwise — importing
:mod:`repro` never requires numpy, and a missing numpy silently falls
back.  An *explicit* ``"numpy"`` request on a host without numpy raises,
never silently degrades.  The choice is threaded through every layer
that builds a :class:`~repro.core.matrices.Preprocessing`:
``Engine(kernel=...)``, :class:`~repro.engine.spec.EngineConfig` (so
parallel workers hydrate the same backend), the CLI ``--kernel`` flag and
:meth:`~repro.store.prepstore.PreprocessingStore.load`.

Both backends are bit-identical by contract — the differential harness
and the cross-kernel property tests enforce it — so the selection is
purely a performance choice.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple, Union

from repro.errors import EvaluationError

from repro.core.kernels.base import Kernel, PYTHON_KERNEL, PythonKernel

#: What the CLI ``--kernel`` flag accepts.
KERNEL_CHOICES = ("auto", "python", "numpy")

#: tri-state cache: None = not probed yet, else the availability verdict.
_numpy_usable: Optional[bool] = None
_numpy_kernel: Optional[Kernel] = None


def numpy_available() -> bool:
    """Whether the numpy backend can be used on this host.

    Requires an importable numpy *and* a little-endian host — the uint64
    word layout is shared bit-for-bit with the on-disk ``.prep`` format,
    which is little-endian.  The probe actually imports (a numpy that is
    installed but broken counts as unavailable) and the verdict is
    cached; the probe only ever runs when something asks about numpy, so
    importing :mod:`repro` alone stays numpy-free.
    """
    global _numpy_usable
    if _numpy_usable is None:
        if sys.byteorder != "little":
            _numpy_usable = False
        else:
            try:
                import numpy  # noqa: F401

                _numpy_usable = True
            except ImportError:
                _numpy_usable = False
    return _numpy_usable


def _get_numpy_kernel() -> Optional[Kernel]:
    global _numpy_kernel, _numpy_usable
    if _numpy_kernel is None and numpy_available():
        try:
            from repro.core.kernels.numpy_kernel import NumpyKernel
        except ImportError:  # pragma: no cover - probed importable above
            _numpy_usable = False
            return None
        _numpy_kernel = NumpyKernel()
    return _numpy_kernel


def available_kernels() -> Tuple[str, ...]:
    """Names of the backends usable on this host, reference first."""
    return ("python", "numpy") if numpy_available() else ("python",)


def default_kernel_name() -> str:
    """What ``"auto"`` resolves to here."""
    return "numpy" if numpy_available() else "python"


def resolve_kernel(spec: Union[None, str, Kernel] = None) -> Kernel:
    """The :class:`Kernel` for ``spec`` (``None``/``"auto"`` auto-detects).

    >>> resolve_kernel("python").name
    'python'
    >>> resolve_kernel(resolve_kernel("python")).name   # instances pass through
    'python'
    """
    if isinstance(spec, Kernel):
        return spec
    if spec is None or spec == "auto":
        kernel = _get_numpy_kernel()
        return kernel if kernel is not None else PYTHON_KERNEL
    if spec == "python":
        return PYTHON_KERNEL
    if spec == "numpy":
        kernel = _get_numpy_kernel()
        if kernel is None:
            raise EvaluationError(
                "kernel 'numpy' requested but numpy is not usable here "
                "(not installed, broken, or a big-endian host); install "
                "numpy or use kernel='python'"
            )
        return kernel
    raise EvaluationError(
        f"unknown kernel {spec!r}; expected one of {KERNEL_CHOICES} "
        "or a Kernel instance"
    )


__all__ = [
    "EvaluationError",
    "KERNEL_CHOICES",
    "Kernel",
    "PythonKernel",
    "PYTHON_KERNEL",
    "available_kernels",
    "default_kernel_name",
    "numpy_available",
    "resolve_kernel",
]
