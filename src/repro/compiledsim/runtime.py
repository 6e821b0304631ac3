"""Kernel-table resolution for the simulated-GPU engine.

The table is resolved once per process, lazily — on the first dispatch
hook call, never at import — from what the machine offers:

* **cc** — the kernels in :mod:`.csrc`, built with the system C compiler
  and bound via ctypes (:mod:`.cc`); the on-disk ``.so`` cache makes the
  build a one-time cost per machine.
* **numpy** — when no compiler builds them there is no table: every
  dispatch hook returns ``None`` and each call site runs its existing
  vectorized path.  Reaching this tier emits a one-time
  :class:`RuntimeWarning`.

Both are exact, so which one a process resolves changes host wall-clock
only, never colors or simulated times.
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager

__all__ = ["get_kernels", "kernels", "current_tier", "warmup"]

_resolved: tuple[str, dict | None] | None = None
_RESOLVE_LOCK = threading.Lock()


def _after_fork() -> None:
    # A fork taken while another thread was resolving (the lock is held
    # for a whole cold build) would leave the child's copy locked
    # forever; the child resolves on its own instead.
    global _RESOLVE_LOCK
    _RESOLVE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_after_fork)


def _try_cc() -> dict | None:
    import subprocess

    from . import cc

    try:
        return cc.load_kernels()
    except (cc.CCBuildError, OSError, subprocess.SubprocessError):
        # No compiler, a failed compile, an unwritable cache directory
        # or a hung build: every run still works on the NumPy tier.
        return None


def get_kernels() -> tuple[str, dict | None]:
    """The process's ``(tier_name, kernel_table_or_None)``, resolved once."""
    global _resolved
    with _RESOLVE_LOCK:
        if _resolved is None:
            table = _try_cc()
            if table is None:
                warnings.warn(
                    "the simulator's C kernels could not be built or "
                    "loaded; falling back to the pure-NumPy kernels. "
                    "Results are identical, only wall-clock speed "
                    "differs. Install a C toolchain to enable the C tier.",
                    RuntimeWarning,
                    stacklevel=3,
                )
                _resolved = ("numpy", None)
            else:
                _resolved = ("cc", table)
        return _resolved


def kernels() -> dict | None:
    """The process's kernel table, or ``None`` on the NumPy tier.

    The dispatch hooks call this on every use, so the fast path is one
    global read; the first call resolves the tier.
    """
    resolved = _resolved
    if resolved is None:
        resolved = get_kernels()
    return resolved[1]


def current_tier() -> str | None:
    """The resolved tier name, or ``None`` if not resolved yet."""
    return _resolved[0] if _resolved is not None else None


def warmup() -> str:
    """Resolve the tier now and return its name.

    Pays the one-off C build and library load up front — the parallel
    scheduler calls this from its worker initializer so pool workers
    start hot instead of paying it inside their first job.
    """
    return get_kernels()[0]


@contextmanager
def _forced_numpy_tier():
    """Run the block on the NumPy tier, as on a host with no compiler.

    Every dispatch hook declines while the block runs, and pool workers
    forked inside it inherit the forced tier.  For tests and the kernel
    benchmark, which compare the two tiers in one process.
    """
    global _resolved
    saved = _resolved
    _resolved = ("numpy", None)
    try:
        yield
    finally:
        _resolved = saved


def _reset_for_tests() -> None:
    """Forget the resolved tier (the next use resolves and may warn again)."""
    global _resolved
    with _RESOLVE_LOCK:
        _resolved = None
