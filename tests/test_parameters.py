"""The one check of a scalar number parameter (errors.check_number) and the
fields of the public dataclasses that go through it."""

import dataclasses
import re

import numpy as np
import pytest

from helpers import random_well_posed_network
from robsyn.conic import SolverOptions
from robsyn.errors import check_number
from robsyn.mpc import reference_mpc_problem
from robsyn.multipliers import InputPairSet
from robsyn.network import FixedPointConfig
from robsyn.synthesis import SimilarityTolerances, SynthesisProblem
from robsyn.verification import SampleSpec


def _synthesis_problem(**gains) -> SynthesisProblem:
    net = random_well_posed_network(0, n=2, n_u=1, n_g=1)
    return SynthesisProblem(net, InputPairSet(1.0, 1.0), SimilarityTolerances(), **gains)


# each field's name in its error, and the object built with the field set to v
FIELDS = {
    "feas_tol": lambda v: SolverOptions(feas_tol=v),
    "gap_tol": lambda v: SolverOptions(gap_tol=v),
    "tol": lambda v: FixedPointConfig(tol=v),
    "eps_u1": lambda v: InputPairSet(v, 1.0),
    "eps_u2": lambda v: InputPairSet(1.0, v),
    "tolerance w_x": lambda v: SimilarityTolerances(w_x=v),
    "tolerance w_u": lambda v: SimilarityTolerances(w_u=v),
    "tolerance w_fx": lambda v: SimilarityTolerances(w_fx=v),
    "tolerance w_fu": lambda v: SimilarityTolerances(w_fu=v),
    "fixed_gamma_u1": lambda v: _synthesis_problem(fixed_gamma_u1=v),
    "fixed_gamma_u2": lambda v: _synthesis_problem(fixed_gamma_u2=v),
    "v_bound": lambda v: dataclasses.replace(reference_mpc_problem(), v_bound=v),
    "base_box[0]": lambda v: SampleSpec(base_box=(v, 1.0)),
    "base_box[1]": lambda v: SampleSpec(base_box=(-1.0, v)),
}


@pytest.mark.parametrize("value", [True, "0.1", np.array([1.0, 2.0])], ids=["True", "str", "array"])
@pytest.mark.parametrize("name", list(FIELDS))
def test_a_value_that_is_not_a_real_number_is_named(name, value):
    # True is not taken as 1, a string raises no bare TypeError and an array
    # no ambiguous-truth error
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, got "):
        FIELDS[name](value)


@pytest.mark.parametrize("name", list(FIELDS))
def test_numpy_scalars_are_numbers(name):
    FIELDS[name](np.float64(0.5))
    FIELDS[name](np.int64(1))


@pytest.mark.parametrize(
    "sign, accepted, rejected",
    [
        ("nonnegative", [0, 0.0, 2.5], [-1e-300, -1]),
        ("positive", [1e-300, 3], [0, 0.0, -1.0]),
        ("any", [-1e300, 0, 7], []),
    ],
)
def test_check_number_by_sign(sign, accepted, rejected):
    for value in accepted:
        check_number(value, "x", sign)
    for value in [*rejected, float("inf"), -float("inf"), float("nan")]:
        with pytest.raises(ValueError, match="^x must be .*finite, got "):
            check_number(value, "x", sign)
