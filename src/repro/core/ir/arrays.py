"""Array declarations.

An :class:`ArrayDecl` is one out-of-core (or in-core) array: a name, a
shape (dimensions may be symbolic parameter names), an element size in
bytes, and -- for *index* arrays driving indirect references -- optional
backing data.  Arrays are laid out row-major; the executor assigns each
array its own page-aligned virtual segment at run time.

The paper's key observation about indirect references (Section 2.2.1)
shows up here: only arrays whose *values* feed addresses need real data
(``BUK``'s keys, ``CGM``'s sparsity structure); arrays that are merely
read/written numerically never materialize, because the simulation needs
their address stream, not their contents.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import ExecutionError, IRError

DimLike = Union[int, str]


class ArrayDecl:
    """One declared array in a program."""

    __slots__ = ("name", "shape", "elem_size", "data")

    def __init__(
        self,
        name: str,
        shape: Sequence[DimLike],
        elem_size: int = 8,
        data: np.ndarray | None = None,
    ) -> None:
        if not name:
            raise IRError("array name must be non-empty")
        if not shape:
            raise IRError(f"array {name!r} must have at least one dimension")
        if elem_size <= 0:
            raise IRError(f"array {name!r} element size must be positive")
        for dim in shape:
            if isinstance(dim, int):
                if dim <= 0:
                    raise IRError(f"array {name!r} has non-positive dimension {dim}")
            elif not isinstance(dim, str):
                raise IRError(f"array {name!r} dimension {dim!r} must be int or parameter name")
        if data is not None and len(shape) != 1:
            raise IRError(f"index array {name!r} with data must be one-dimensional")
        self.name = name
        self.shape = tuple(shape)
        self.elem_size = elem_size
        self.data = data

    # ------------------------------------------------------------------
    # Shape resolution
    # ------------------------------------------------------------------

    def resolved_shape(self, params: Mapping[str, int]) -> tuple[int, ...]:
        """Concrete shape under fully-bound runtime parameters."""
        dims = []
        for dim in self.shape:
            if isinstance(dim, int):
                dims.append(dim)
            else:
                try:
                    dims.append(params[dim])
                except KeyError:
                    raise ExecutionError(
                        f"array {self.name!r} dimension parameter {dim!r} is unbound"
                    ) from None
        return tuple(dims)

    def compile_time_shape(self, known: Mapping[str, int]) -> tuple[int | None, ...]:
        """Shape as the compiler sees it: None for runtime-only dimensions."""
        return tuple(
            dim if isinstance(dim, int) else known.get(dim) for dim in self.shape
        )

    def strides_elems(self, params: Mapping[str, int]) -> tuple[int, ...]:
        """Row-major strides in *elements* for each dimension."""
        shape = self.resolved_shape(params)
        strides = [1] * len(shape)
        for d in range(len(shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        return tuple(strides)

    def compile_time_strides(self, known: Mapping[str, int]) -> tuple[int | None, ...]:
        """Row-major element strides, None where a dimension is unknown."""
        shape = self.compile_time_shape(known)
        strides: list[int | None] = [1] * len(shape)
        for d in range(len(shape) - 2, -1, -1):
            below = strides[d + 1]
            dim = shape[d + 1]
            strides[d] = None if below is None or dim is None else below * dim
        return tuple(strides)

    def nbytes(self, params: Mapping[str, int]) -> int:
        total = self.elem_size
        for dim in self.resolved_shape(params):
            total *= dim
        return total

    def nelems(self, params: Mapping[str, int]) -> int:
        total = 1
        for dim in self.resolved_shape(params):
            total *= dim
        return total

    def __repr__(self) -> str:
        dims = "][".join(str(d) for d in self.shape)
        return f"{self.name}[{dims}]"
