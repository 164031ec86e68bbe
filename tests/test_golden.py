"""Golden bits: each fitter's estimate pinned to the last bit.

The expected values were recorded from the four fitters before they were
rebuilt on shared pieces, so a refactor that moves any float by one ulp,
reorders a support or changes a diagnostic fails here. naive_logit runs in
no benchmark digest, so this is the only place its bits are pinned.

To re-record after a change that is meant to move the numbers, run

    PYTHONPATH=src python tests/test_golden.py

and paste its output over GOLDEN.
"""

import hashlib

import numpy as np
import pytest

from doublelasso import (
    DmlConfig,
    PenaltyConfig,
    dml_linear,
    dml_logit,
    naive_linear,
    naive_logit,
)

FITTERS = {
    "dml_logit": dml_logit,
    "naive_logit": naive_logit,
    "dml_linear": dml_linear,
    "naive_linear": naive_linear,
}

# (case id, fitter, seed, DmlConfig keyword arguments)
CASES = [(f"{name}-{seed}", name, seed, {}) for name in FITTERS for seed in (3, 4)] + [
    ("dml_logit-sigma", "dml_logit", 5, {"instrument_scaling": "sigma"}),
    ("dml_logit-cv", "dml_logit", 6, {"penalty": PenaltyConfig(method="cv")}),
    ("dml_linear-cv", "dml_linear", 6, {"penalty": PenaltyConfig(method="cv")}),
]


def _data(seed, binary, n=200, p=15):
    """Confounded sparse design: d and the outcome share controls 0-2."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    d = X[:, :3] @ np.array([0.5, -0.4, 0.3]) + rng.normal(size=n)
    eta = 0.6 * d + X[:, :4] @ np.array([0.7, 0.5, -0.6, 0.4])
    if binary:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = eta + rng.normal(size=n)
    return y, d, X


def _record(name, seed, opts):
    y, d, X = _data(seed, binary=name.endswith("logit"))
    est = FITTERS[name](y, d, X, config=DmlConfig(**opts))
    diag = repr(sorted(est.diagnostics.items())).encode()
    return {
        "alpha": est.alpha.hex(),
        "std_error": est.std_error.hex(),
        "ci_low": est.ci_low.hex(),
        "ci_high": est.ci_high.hex(),
        "p_value": est.p_value.hex(),
        "step1_support": est.step1_support,
        "step2_support": est.step2_support,
        "warnings": est.warnings,
        "diagnostics_sha": hashlib.sha256(diag).hexdigest()[:16],
    }


GOLDEN = {
    'dml_logit-3': {
        'alpha': '0x1.01a3896692e56p-1',
        'std_error': '0x1.496bda9d25b98p-3',
        'ci_low': '0x1.80e6c0187ee92p-3',
        'ci_high': '0x1.a30d62c706108p-1',
        'p_value': '0x1.ccc6d0c34c32dp-10',
        'step1_support': ('x0', 'x1'),
        'step2_support': ('x0', 'x1', 'x2', 'x7'),
        'warnings': (),
        'diagnostics_sha': '371d1074c06ff056',
    },
    'dml_logit-4': {
        'alpha': '0x1.6c0aca19bcd6ap-2',
        'std_error': '0x1.42b2783ca392ap-3',
        'ci_low': '0x1.7e7022684ae38p-5',
        'ci_high': '0x1.5423c7f338286p-1',
        'p_value': '0x1.8a1ed36d7c554p-6',
        'step1_support': (),
        'step2_support': ('x0', 'x1', 'x2'),
        'warnings': (),
        'diagnostics_sha': '04f4c933e1dd7601',
    },
    'naive_logit-3': {
        'alpha': '0x1.df1cceb592e52p-2',
        'std_error': '0x1.5cab9939cbf1dp-3',
        'ci_low': '0x1.12d80439cbd84p-3',
        'ci_high': '0x1.9a66cda71fef1p-1',
        'p_value': '0x1.88aea8dcc42d2p-8',
        'step1_support': ('x0', 'x1'),
        'step2_support': (),
        'warnings': (),
        'diagnostics_sha': '3a7c7a9fdd8ceb5e',
    },
    'naive_logit-4': {
        'alpha': '0x1.3b8442815e61dp-2',
        'std_error': '0x1.01533d44afff6p-3',
        'ci_low': '0x1.fabdb12aba930p-5',
        'ci_high': '0x1.1bd8676eb2b8ap-1',
        'p_value': '0x1.d127d64a63866p-7',
        'step1_support': (),
        'step2_support': (),
        'warnings': (),
        'diagnostics_sha': '3a7c7a9fdd8ceb5e',
    },
    'dml_linear-3': {
        'alpha': '0x1.3350c3c43440fp-1',
        'std_error': '0x1.10b88cdcdd8d2p-4',
        'ci_low': '0x1.e1000c65815dcp-2',
        'ci_high': '0x1.76218155a7d30p-1',
        'p_value': '0x1.d1b41661d496ep-63',
        'step1_support': ('x0', 'x1', 'x2', 'x3', 'x7', 'x11'),
        'step2_support': ('x0', 'x1', 'x2', 'x5', 'x7', 'x10'),
        'warnings': (),
        'diagnostics_sha': '9628ca48d616e4be',
    },
    'dml_linear-4': {
        'alpha': '0x1.3f6d139bebd79p-1',
        'std_error': '0x1.336bc19b94af9p-4',
        'ci_low': '0x1.e837fb31446ccp-2',
        'ci_high': '0x1.8abe299f3578cp-1',
        'p_value': '0x1.b07995bd4da1fp-54',
        'step1_support': ('x0', 'x1', 'x2', 'x3'),
        'step2_support': ('x0', 'x1', 'x2'),
        'warnings': (),
        'diagnostics_sha': '0edc65643e8959ca',
    },
    'naive_linear-3': {
        'alpha': '0x1.39908ad751517p-1',
        'std_error': '0x1.08f802e55e075p-4',
        'ci_low': '0x1.f14c028903df0p-2',
        'ci_high': '0x1.7a7b146a20b36p-1',
        'p_value': '0x1.b24e713de2dc2p-69',
        'step1_support': ('x0', 'x1', 'x2', 'x3', 'x11', 'x12'),
        'step2_support': (),
        'warnings': (),
        'diagnostics_sha': '4188f0656bfeec4d',
    },
    'naive_linear-4': {
        'alpha': '0x1.3f6d139bebd79p-1',
        'std_error': '0x1.336bc19b94af9p-4',
        'ci_low': '0x1.e837fb31446ccp-2',
        'ci_high': '0x1.8abe299f3578cp-1',
        'p_value': '0x1.b07995bd4da1fp-54',
        'step1_support': ('x0', 'x1', 'x2', 'x3'),
        'step2_support': (),
        'warnings': (),
        'diagnostics_sha': '3a7c7a9fdd8ceb5e',
    },
    'dml_logit-sigma': {
        'alpha': '0x1.84fe30ad3e732p-1',
        'std_error': '0x1.a35d270ce70b6p-3',
        'ci_low': '0x1.6f044dd699949p-2',
        'ci_high': '0x1.293d1d37980e0p+0',
        'p_value': '0x1.b21d797a38265p-13',
        'step1_support': ('x0',),
        'step2_support': ('x0', 'x1', 'x2', 'x8'),
        'warnings': (),
        'diagnostics_sha': 'ff9f4c68113ddef1',
    },
    'dml_logit-cv': {
        'alpha': '0x1.7e2c85b3e2944p-1',
        'std_error': '0x1.8e5b516ac052ap-3',
        'ci_low': '0x1.75f726381d44ep-2',
        'ci_high': '0x1.20aebc25db430p+0',
        'p_value': '0x1.04a83502c845cp-13',
        'step1_support': ('x0', 'x1', 'x2', 'x3', 'x4', 'x5', 'x6', 'x10', 'x11', 'x12', 'x13', 'x14'),
        'step2_support': ('x0', 'x1', 'x2', 'x4', 'x5', 'x6', 'x11'),
        'warnings': (),
        'diagnostics_sha': '3aecc8f3c768b91b',
    },
    'dml_linear-cv': {
        'alpha': '0x1.2775633e010d9p-1',
        'std_error': '0x1.0de4045a1be78p-4',
        'ci_low': '0x1.caac4f20d869ep-2',
        'ci_high': '0x1.69949eeb95e63p-1',
        'p_value': '0x1.25a08295bcd71p-59',
        'step1_support': ('x0', 'x1', 'x2', 'x3', 'x4', 'x11', 'x13', 'x14'),
        'step2_support': ('x0', 'x1', 'x2', 'x4', 'x13'),
        'warnings': (),
        'diagnostics_sha': 'de10968a076cc3ef',
    },
}


@pytest.mark.parametrize("case, name, seed, opts", CASES, ids=[c[0] for c in CASES])
def test_estimate_bits_are_unchanged(case, name, seed, opts):
    assert _record(name, seed, opts) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case, name, seed, opts in CASES:
        print(f"    {case!r}: {{")
        for key, value in _record(name, seed, opts).items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
