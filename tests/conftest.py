import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import pytest

from scw import workbench


@pytest.fixture(scope="session")
def bidouble_wf():
    return workbench.load_bundled("inoue_bidouble.json", seed=0)


@pytest.fixture(scope="session")
def z2z4_wf():
    return workbench.load_bundled("inoue_z2z4.json", seed=0)


@pytest.fixture(scope="session")
def surface_w(bidouble_wf):
    return bidouble_wf.surfaces["W"]


@pytest.fixture(scope="session")
def surface_y(z2z4_wf):
    return z2z4_wf.surfaces["Y"]


@pytest.fixture(scope="session")
def cover_g(bidouble_wf):
    return bidouble_wf.covers["inoue_bidouble"]


@pytest.fixture(scope="session")
def cover_h(z2z4_wf):
    return z2z4_wf.covers["inoue_z2z4"]


@pytest.fixture(scope="session")
def case_table():
    """Theorem 1.1's case -> ((K.R_1, K.R_2, K.R_3), (R_1R_2, R_1R_3, R_2R_3)),
    as the theorem11 entries of named.json state them."""
    return {e.args["case"]: (e.args["expected_kr"], e.args["expected_rr"])
            for e in workbench.load_bundled("named.json").checks if e.kind == "theorem11"}
