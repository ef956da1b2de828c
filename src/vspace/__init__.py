"""Finite vicinity spaces: connectedness, tolerant labelings, and coding.

Submodules load on first use: ``import vspace`` imports none of them, and
reading a public name imports only the submodule that defines it.
"""
from importlib import import_module

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "coding": """CodedSpace CodedSpaceConfig RoundtripReport build_coded_space
        decode_from_cover pair unpair validate_config verify_roundtrip""",
    "connectivity": "ConnectivityVerdict chain_exists is_connected verify_witness",
    "errors": "DEFAULT_MAX_COVERS BudgetExceededError CodingConfigError ParseError ValidationError VSpaceError",
    "oracles": "DECJZ HALT INC EnumerationOracle machine_enumeration",
    "spaces": """STRONG WEAK FiniteVSpace Labeling VicinitySystem Violation induced_space
        make_space validate_space""",
    "tolerance": """HOLDS NOT_APPLICABLE REFUTED TheoremOutcome ToleranceReport
        check_nonconn check_nontol tolerance_report tolerant_cover""",
}
# Each public name and the submodule that defines it.
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    # Looked up in the home module on every access and never stored here,
    # so a name rebound in its home module (as a tracer does, and undoes)
    # is seen at once.
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
