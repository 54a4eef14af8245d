"""Backend selection for the involution scan kernel.

Prefers the compiled extension `_speed` when it is importable and its `API`
matches the pure Python twin `_purekernels`, falling back to the twin
otherwise.  A build whose `API` differs was made from an older `_speed.c`;
it is skipped with a warning to rebuild.  Setting the environment variable
``HURWITZNUM_PURE`` to a non-empty value forces the pure backend, which is
useful for benchmarking and for debugging the compiled kernel against its
reference implementation.
"""

from __future__ import annotations

import os
import warnings

from . import _purekernels

_impl = _purekernels
if not os.environ.get("HURWITZNUM_PURE"):
    try:
        from . import _speed  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        api = getattr(_speed, "API", None)
        if api == _purekernels.API:
            _impl = _speed
        else:
            warnings.warn(
                f"ignoring the compiled kernel hurwitznum._speed: its API is {api}, "
                f"not {_purekernels.API}, so it was built from an older _speed.c; "
                "rebuild it with `python3 setup.py build_ext --inplace`",
                stacklevel=2,
            )

scan_involutions_block = _impl.scan_involutions_block


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'pure'."""
    return _impl.backend()


def scan_involutions(
    d: int, lens: tuple[int, ...], target: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """`scan_involutions_block` for ``first = 1 .. d-1``, concatenated."""
    return [v for first in range(1, d) for v in scan_involutions_block(d, first, lens, target)]
