"""Signed-digit recoding and multi-exponentiation toolkit.

Recoders (non-adjacent form, joint sparse form, complement-aware
recoding), an exact-counting evaluator over pluggable groups, transducer
and Markov-chain analysis of the recoders, and reproducible statistics
with brute-force minimality oracles.

`import digitkit` loads the expansion, recoding and multi-exponentiation
layers; the experiment, transducer and verification layers load on first
use, whether through a name exported here or the submodule itself.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .expansions import Expansion, JointExpansion, binary, ones_complement, stack
from .multiexp import (
    MERSENNE61,
    AdditiveGroup,
    CostCounter,
    GroupOps,
    ModGroup,
    PrecompTable,
    evaluate,
    is_probable_prime,
    multiexp,
    precompute,
    square_and_multiply,
)
from .recoding import (
    ORACLE_BOUND,
    OracleResult,
    RecodingScheme,
    is_naf,
    is_sjsf,
    min_joint_weight_oracle,
    min_weight1_oracle,
    naf,
    naf_complement_weight_gap,
    recode_joint,
    reduce_digit2,
    sjsf,
    wllc_joint,
    wllc_recode,
)

# The other layers load on first access (PEP 562), each with the public
# names it exports.  `multiexp` cannot be among them: the import system
# binds a submodule to its package's attribute when it first loads it,
# which would replace the `multiexp` function by the module.
_LAZY = {
    "experiments": (
        "ComplementBitReport",
        "RunConfig",
        "SchemeComparison",
        "SlopeReport",
        "StatRecord",
        "compare_schemes",
        "complement_bit_probabilities",
        "cost_slope",
        "exhaustive_stats",
        "run_stats",
        "sample_exponents",
    ),
    "transducer": (
        "RationalMatrix",
        "StateDistribution",
        "Transducer",
        "double_naf_transducer",
        "naf_transducer",
        "sjsf_transducer",
        "state_distribution",
        "stationary_distribution",
        "strongly_connected_components",
        "transition_matrix",
        "zero_output_probability",
    ),
    "verification": ("CHECKS", "CheckReport", "run_check"),
}
_HOME = {name: layer for layer, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"

# The exported names, each written once: the eager imports above (not the
# submodules they bind) and every lazy one.
__all__ = sorted(
    {name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)}
    | _HOME.keys()
)
