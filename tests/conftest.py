import pytest

from minorbit.matmodel import MODEL_IDS, analyze
from minorbit.realform import load_catalog


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def catalog_map(catalog):
    return {e.id: e for e in catalog}


@pytest.fixture(scope="session")
def all_analyses():
    """Every matrix model fully analyzed once per test session."""
    return {form_id: analyze(form_id) for form_id in MODEL_IDS}
