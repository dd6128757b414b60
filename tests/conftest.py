import pathlib

import pytest
from hypothesis import settings

import polardl as P

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def movies_kb():
    return P.parse_kb((FIXTURES / "movies.kb").read_text())


@pytest.fixture(scope="session")
def movies_engine(movies_kb):
    return P.QueryEngine(movies_kb)


@pytest.fixture(scope="session")
def movie_table_completion():
    import movie_data
    return P.saturate(movie_data.unraveled_abox())


@pytest.fixture(scope="session")
def movie_model(movie_table_completion):
    return P.build_model(movie_table_completion)
