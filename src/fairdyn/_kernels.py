"""Re-export of the kernel: perfbench reads BACKEND and rebinds ct_loop here."""

from __future__ import annotations

from ._loops_py import BACKEND, ct_loop

__all__ = ["BACKEND", "ct_loop"]
