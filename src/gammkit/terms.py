"""Declarative model specifications: the terms and the model they form.

Only the standard library is imported, so a spec file parses into these
classes, and its errors surface, without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SchemaError


@dataclass(frozen=True)
class SmoothTermSpec:
    """Declarative description of one smooth model term."""

    covariates: tuple[str, ...]
    basis_kind: str = "tp"
    k: tuple[int, ...] | int | None = None
    m: int = 2
    by: str | None = None
    fs_group: str | None = None
    is_random_effect: bool = False

    def __post_init__(self):
        if isinstance(self.covariates, str):
            object.__setattr__(self, "covariates", (self.covariates,))
        else:
            object.__setattr__(self, "covariates", tuple(self.covariates))
        if self.by is not None and self.fs_group is not None:
            raise DomainError("by and fs_group are mutually exclusive")
        if self.basis_kind in ("tensor", "ti") and len(self.covariates) < 2:
            raise DomainError(f"{self.basis_kind} smooths need >= 2 covariates")
        if self.basis_kind in ("cr", "tp") and self.k is not None:
            kk = self.k if isinstance(self.k, int) else self.k[0]
            if kk < 3:
                raise DomainError(f"k must be >= 3 for {self.basis_kind} smooths")

    @property
    def label(self) -> str:
        inner = ",".join(self.covariates)
        if self.is_random_effect:
            return f"re({inner})"
        if self.fs_group is not None:
            return f"fs({inner},{self.fs_group})"
        tag = {"tp": "s", "tensor": "te"}.get(self.basis_kind, self.basis_kind)
        base = f"{tag}({inner})"
        if self.by is not None:
            base += f":{self.by}"
        return base


@dataclass(frozen=True)
class ParametricTerm:
    """A coded parametric term: one name, or several joined as a product."""

    names: tuple[str, ...]
    coding: str = "sum"

    def __post_init__(self):
        if isinstance(self.names, str):
            object.__setattr__(self, "names", (self.names,))
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if self.coding not in ("sum", "treatment"):
            raise DomainError(f"unknown coding {self.coding!r}")

    @property
    def label(self) -> str:
        return ":".join(self.names)


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model: response, parametric terms, smooths, AR(1) rho."""

    response: str
    parametric_terms: tuple = ()
    smooth_terms: tuple = ()
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "parametric_terms", tuple(self.parametric_terms))
        object.__setattr__(self, "smooth_terms", tuple(self.smooth_terms))
        if not (0.0 <= self.rho < 1.0):
            raise DomainError(f"rho must lie in [0, 1), got {self.rho}")
        labels = [t.label for t in self.parametric_terms] + \
                 [t.label for t in self.smooth_terms]
        if len(labels) != len(set(labels)):
            raise SchemaError("duplicate term labels in model spec")
