"""The shipped lint rules; importing this package registers them all."""

from repro.lint.rules.array_aliasing import (
    ArrayAliasParamRule,
    ArrayAliasReturnRule,
)
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.encapsulation import InterfaceEncapsulationRule
from repro.lint.rules.error_discipline import ErrorDisciplineRule
from repro.lint.rules.hypercall_validation import HypercallValidationRule
from repro.lint.rules.migration_protocol import MigrationProtocolRule
from repro.lint.rules.p2m_typestate import P2MTypestateRule
from repro.lint.rules.purity import PurityRule
from repro.lint.rules.reachability import ReachabilityRule
from repro.lint.rules.shared_state import SharedMutableStateRule

__all__ = [
    "InterfaceEncapsulationRule",
    "DeterminismRule",
    "ErrorDisciplineRule",
    "HypercallValidationRule",
    "MigrationProtocolRule",
    "SharedMutableStateRule",
    "PurityRule",
    "P2MTypestateRule",
    "ArrayAliasReturnRule",
    "ArrayAliasParamRule",
    "ReachabilityRule",
]
