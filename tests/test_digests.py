"""Seeded outputs pinned bit for bit by their SHA-256 digests.

A change that claims to keep every bit of the program's seeded outputs
(a refactor, a perf mechanism added or taken out) must leave these
digests as they are: the `errors` of all eight estimators on scenarios
A, B and CV, the four traces of `crlb_traces` on each scenario, and the
`data` of every oracle check at a small scale.  The digests were recorded
with numpy 2.4.6; other numpy builds may round differently, so the test
runs only there.  Re-record a digest only for a change meant to move
that output, and say so where the change is described.
"""
import hashlib

import numpy as np
import pytest

from paretoloc.simulate import (
    KNOWN_ESTIMATORS,
    ExperimentConfig,
    crlb_traces,
    make_scenario,
    run_experiment,
)
from paretoloc.validate import run_all_checks

NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY, reason=f"digests recorded with numpy {NUMPY}"
)

SCENARIOS = ("A", "B", "CV")
TRACES = ("parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub")

ERRORS = {
    "A": {
        "fusion": "bdcbc67e360d2b80cce7bce4ac6978b3fd57413827bf502eed1465f89d738897",
        "mse": "a7540db71a0df7139206e0ecf857dedd648fe857ced3a8e7fdfdafdcfd994da8",
        "wls": "c12cd618345abb4662c19d118638f29db16382e28ee7d72ed1d70f17df21d1f7",
        "dr": "c1bdd9419a4370e641a5d0e5683928d6c1f8a1c8d89317492e3cbef870790c92",
        "ekf": "a79cbf7b51d6eca50d7ce61b8846c64a1f90b20b9fa4c951e83fab6b6a46769e",
        "ukf": "b48db0d7104019b3c4db9ad72f026498ad8e05de18377dc2d67ec40a21ff8ace",
        "lckf": "4c152cba4096d11a384a061040c81a697ed831c05594c3faffda3f208b3de09f",
        "ekf-cv": "0fe374fa104d21bf528ef3c697cd12bfde41f06fdf070a2dedf6bf3bf3376f7b",
    },
    "B": {
        "fusion": "8ae8eaf11549900b5ac76c0114375d71e26cc1eb4e05d7d8047445afea6138f9",
        "mse": "4b9e8d9f0bb31e8da69b881ef9362cc7a11b114efaf7cc95d0b51d6f6bcd04b7",
        "wls": "db507382af0c568edf4736c0fa2733932f9c5116c66dd53467318cdfac0fead1",
        "dr": "56c796f75c140e52e20fed6ee29681c573510facd5532ad6579742d207873737",
        "ekf": "8aad7cccf5b0907e66c5aedff862d85a1f74edd25e8212d0672d2ad782072aca",
        "ukf": "464c633da3c8fc164864e14c6e6e04cc90576457090cff73c686ddb643f54456",
        "lckf": "d003e2350e0e5c3708eeb9148c1cd325e5ff372b11efe2b4f7974d4bbb587cc0",
        "ekf-cv": "f6b546d8d04a18862b926119564299c1263c83f0ec959aa9f6daf48ac089b5d5",
    },
    "CV": {
        "fusion": "ff927a3f6e95ffc4c007939759eb6836ce34c145dda5693bdc7c173e0cda9726",
        "mse": "f689bc25320b1f0f2fbd76299484ece53c97220ead2807f22120224365f2a8d5",
        "wls": "8c31c596d2c450b11e6b6046bb77c803b31dfdfd35ece16468096187b34f296b",
        "dr": "5c20f2956af32cf19c4ca6156ce784ef0f06458eb4f193da072f92d6270b48d3",
        "ekf": "aa5cd1c6b615cd435684b541fd0b5676b0145c0f2f7f00518729aa8b6645f5ae",
        "ukf": "6ce819599fe922a2a4580c5bdbe83776f54cf48b840a221749d119ead74e4f46",
        "lckf": "563cffb6b4d46e8c2309e7c738999237ba1372e2a3d03f5dd48b706b5966f2bb",
        "ekf-cv": "05e91715637e0b3452c8d35d2cc0a63df67a63b2234de488f6d56ab018263fd3",
    },
}

BOUNDS = {
    "A": {
        "parcrlb": "9794f2b75b77241199daf62663e87237f39597063571f0dcfc4bf9e205acfb71",
        "pcrlb": "6da761ec806e3886985dd44ef9348e3d4af280bae38761fb991ed6a32cdad006",
        "pcrlb_lb": "24360b6827c843e88d2b3815a579bf4865a6a8401b3bd4bdd916267b5bdb6403",
        "pcrlb_ub": "e995cb74a001f1fdb759f083957116e339ef3cd8056aa9a5e9e43e5f84aeb3cc",
    },
    "B": {
        "parcrlb": "25591f304d1f1d15c9ab9345b13db0a70d0b486ad3d889392f0f71225a1c6fb7",
        "pcrlb": "30a649f718847dc09d2cdbb18e821f149070a27f0767e9908fc9636c61570906",
        "pcrlb_lb": "c71afc3af8712914e2d66355c4ac03ed5271c255b98ee547cbfcd7a63a714936",
        "pcrlb_ub": "a5f65000f4cf85d2f0f4158eed79b7b96f9cf4e6aaf84e102c1d822d7f7b29f9",
    },
    "CV": {
        "parcrlb": "2b997c41f03e02e55a67a075194547591a90cce1de6f02800541f2c383716543",
        "pcrlb": "83d09d7b6e79abe5593ca49b85615fc0d1bba97c0b51a9bcb3c406fb193980bd",
        "pcrlb_lb": "95cb850ba2e846a8690544af183de36289b33bf3ea8e511cef4ccc3db0a8ac1a",
        "pcrlb_ub": "8e2e472d37b912b17e901b226f2583633e2d595b0985a3dcdb89c1dc074cffe3",
    },
}

ORACLES = {
    "noise-cov-inverse": "f09031f9942c2bc03409e788891684d8624a0e9b665c7523d452fbc2fb56c7e4",
    "ranging-bias": "7fb6e1d8a08664dbd456e1e61fdda84b690c7cbc18aac02001c778cb740954fc",
    "ranging-second-moment": "b12cd95458e2c6aeb1617bc43feaa963cd40b8f61d3e6eee65bac6a00fcabac3",
    "dr-moments": "f1c0041bc8335020b68b4f408becfdf06ea1a0f8670b5f89ed56df8b936f1915",
    "optimal-beta": "90bc533bb3686bbf539d7cf5c9f97823e6e16ecd2aa5844bdde9885b15400681",
    "trig-moments": "8a51961850f0857b0341ff9f0fa236e3c28222db5e951f88ee172568f22e4754",
    "fisher-blocks": "d126dbd7469e5883c85346d8ed3636d57873f68c03601c197263b279d951bb9a",
    "ratio-bounds": "19a22f3fc6233777740b5814961d1ae9e2b26063dc224cf83ac3aa7c11977068",
    "gershgorin-ordering": "94a35cc0b119cbcfbafe8cc17a57048daeb6904b4b380a1fdb8c8c71da13838e",
    "recursion-identities": "b3164f25875e2af658b6a66b38439823922df8b6aa3f3162672cfa723f78501d",
}


def _digest(*values) -> str:
    """SHA-256 of the float64 bytes, with the shape, of each value in turn."""
    h = hashlib.sha256()
    for value in values:
        array = np.ascontiguousarray(value, dtype=float)
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _config(scenario: str, **fields) -> ExperimentConfig:
    return ExperimentConfig(trajectory=make_scenario(scenario, steps=40), seed=5, **fields)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_estimators_errors_keep_their_bits(scenario):
    result = run_experiment(_config(scenario, estimators=KNOWN_ESTIMATORS, runs=3))
    got = {name: _digest(result.errors[name]) for name in KNOWN_ESTIMATORS}
    assert got == ERRORS[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_the_bound_traces_keep_their_bits(scenario):
    traces = crlb_traces(_config(scenario), steps=30, n_ensemble=50)
    assert {name: _digest(traces[name]) for name in TRACES} == BOUNDS[scenario]


def test_the_oracle_checks_keep_the_bits_of_their_data():
    got = {
        result.name: _digest(*(result.data[key] for key in sorted(result.data)))
        for result in run_all_checks(scale=0.02, verbose=False)
    }
    assert got == ORACLES
