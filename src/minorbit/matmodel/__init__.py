"""Explicit matrix models of real forms and their exact structural checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from ..realform import (
    DerivedInvariants,
    RealFormDescriptor,
    catalog_key,
    derive_invariants,
    find_descriptor,
)
from .checks import LambdaData, centralizer_checks, lambda_data, spectral_checks
from .families import MODEL_IDS, ModelError
from .model import LieAlgebraModel, build_model
from .restricted import (
    RestrictedRootDatum,
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
    restricted_root_datum,
)
from .triples import (
    CayleyTriple,
    STriple,
    cayley_transform,
    compact_partner,
    make_s_triple,
)

__all__ = [
    "MODEL_IDS",
    "ModelError",
    "LieAlgebraModel",
    "RestrictedRootDatum",
    "STriple",
    "CayleyTriple",
    "LambdaData",
    "ModelAnalysis",
    "build_model",
    "restricted_root_datum",
    "make_s_triple",
    "cayley_transform",
    "compact_partner",
    "spectral_checks",
    "centralizer_checks",
    "lambda_data",
    "eigenvalue_multiplicities",
    "kernel_ad_e_dimension",
    "analyze",
    "has_matrix_model",
]


def has_matrix_model(form_id: str) -> bool:
    return form_id in MODEL_IDS


@dataclass
class ModelAnalysis:
    """One model with all derived exact structures, built once and shared."""

    descriptor: RealFormDescriptor
    invariants: DerivedInvariants
    model: LieAlgebraModel
    datum: RestrictedRootDatum
    striple: STriple
    cayley: CayleyTriple

    def lambda_data(self) -> LambdaData:
        return self._lambda

    @cached_property
    def _lambda(self) -> LambdaData:
        return lambda_data(self.model, self.cayley, self.invariants.dim_X,
                           self.descriptor.hermitian)


def analyze(form_id: str, catalog: str | Path | None = None) -> ModelAnalysis:
    """The model of ``form_id`` analyzed against a catalog (the shipped one by default)."""
    return _analyze_cached(form_id, catalog_key(catalog))


@lru_cache(maxsize=None)
def _analyze_cached(form_id: str, catalog: str | None) -> ModelAnalysis:
    # CatalogError for a form the catalog lacks, then ModelError for a
    # catalog form with no matrix model
    descriptor = find_descriptor(form_id, catalog)
    if not has_matrix_model(form_id):
        raise ModelError(f"form {form_id!r} has no matrix model")
    invariants = derive_invariants(descriptor)
    model = build_model(form_id)
    datum = restricted_root_datum(model)
    striple = make_s_triple(model, datum)
    cayley = cayley_transform(striple)
    return ModelAnalysis(
        descriptor=descriptor,
        invariants=invariants,
        model=model,
        datum=datum,
        striple=striple,
        cayley=cayley,
    )
