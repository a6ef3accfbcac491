"""Fault table: each row injects one plausible fault into the program and
names the records that must fail on it, so that no check passes a wrong
program unseen."""

import pytest

from halfcyl import suite
from halfcyl.suite import SuiteConfig, run_suite


_exp_generator = suite.exp_generator


def _reversed_boost(direction):
    """exp_generator with exp(t T) replaced by exp(-t T) in one direction."""
    def fault(d, t, config):
        return _exp_generator(d, -t if d == direction else t, config)

    return fault


# (fault id, attribute of halfcyl.suite, its replacement, base names of the
# records that must fail at every k)
FAULTS = [
    ("exp(-t T1) for exp(t T1)", "exp_generator", _reversed_boost("T1"),
     {"boost_adjoint_action", "boost_derivative"}),
    ("exp(-t T2) for exp(t T2)", "exp_generator", _reversed_boost("T2"),
     {"boost_adjoint_action"}),
]


@pytest.mark.parametrize("config", [SuiteConfig(), SuiteConfig(N=256, M=256)],
                         ids=["default", "N=M=256"])
@pytest.mark.parametrize("attr, fault, must_fail", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_fault_fails_its_records(monkeypatch, config, attr, fault, must_fail):
    monkeypatch.setattr(suite, attr, fault)
    failed = {r.name for r in run_suite(config).failures()}
    for base in must_fail:
        for k in config.active_k_values:
            assert f"{base}[k={k:g}]" in failed
