"""Declarative model specifications: the terms and the model they form.

Only the standard library is imported, so a spec file parses into these
classes, and its errors surface, without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SchemaError


# the fewest and most covariates each basis kind takes
_ARITY = {"poly": (1, 1), "cr": (1, 1), "tp": (1, 2), "tensor": (2, 2), "ti": (2, 2)}


@dataclass(frozen=True)
class SmoothTermSpec:
    """Declarative description of one smooth model term. Construction
    checks, before any table is read, its basis kind, covariate count
    (cr and poly 1, tp 1-2, tensor and ti 2; a factor smooth 1 on a cr or
    tp base; a random effect 1-2, with no k, by or fs_group), k count, and
    that m, the penalty order a tp basis reads (None: 2), is set only there."""

    covariates: tuple[str, ...]
    basis_kind: str = "tp"
    k: tuple[int, ...] | int | None = None
    m: int | None = None
    by: str | None = None
    fs_group: str | None = None
    is_random_effect: bool = False

    def __post_init__(self):
        covs = self.covariates
        object.__setattr__(self, "covariates",
                           (covs,) if isinstance(covs, str) else tuple(covs))
        if self.by is not None and self.fs_group is not None:
            raise DomainError("by and fs_group are mutually exclusive")
        kind, n = self.basis_kind, len(self.covariates)
        if kind not in _ARITY:
            self._refuse(f"unknown basis kind {kind!r}")
        if kind in ("tensor", "ti") and n < 2:
            raise DomainError(f"{kind} smooths need >= 2 covariates")
        (lo, hi), what = _ARITY[kind], f"{kind} smooths"
        if self.is_random_effect:
            (lo, hi), what = (1, 2), "random effects"
            if (self.k, self.by, self.fs_group) != (None, None, None):
                self._refuse("random effects take no k, by or fs_group")
        elif self.fs_group is not None:
            if kind not in ("cr", "tp"):
                self._refuse(f"factor smooths take a cr or tp base, not {kind}")
            hi, what = 1, "factor smooths"
        if not lo <= n <= hi:
            self._refuse(f"{what} take {lo if lo == hi else f'{lo} to {hi}'} "
                         f"covariate(s), got {n}")
        numeric = self.covariates[1:] if self.is_random_effect else self.covariates
        if set(numeric) & set(self.factors):
            self._refuse("a column cannot be both numeric and a factor")
        ks = (self.k,) if isinstance(self.k, int) else self.k or ()
        margins = 2 if kind in ("tensor", "ti") else 1
        if len(ks) not in (0, 1, margins):
            self._refuse(f"got {len(ks)} k values for {margins} margins")
        if self.m is not None and (self.is_random_effect or kind != "tp"):
            self._refuse("only a tp basis takes m")
        if kind in ("cr", "tp") and ks and ks[0] < 3:
            raise DomainError(f"k must be >= 3 for {kind} smooths")

    def _refuse(self, why: str):
        raise DomainError(f"term {self.label!r}: {why}")

    @property
    def columns(self) -> tuple[str, ...]:
        """The table columns the term's evaluator reads, in order."""
        return self.covariates + tuple(
            c for c in (self.fs_group, self.by) if c is not None)

    @property
    def factors(self) -> tuple[str, ...]:
        """Those of columns that must be factors: a random effect's first,
        or the fs_group or by factor after the covariates."""
        cols = self.columns
        return cols[:1] if self.is_random_effect else cols[len(self.covariates):]

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
    def columns(self) -> tuple[str, ...]:
        """The table columns the term's evaluator reads, in order."""
        return self.names

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
