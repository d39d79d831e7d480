"""The shared legal vocabulary of the flow-based lint rules.

The paper's core claim is that each acquisition technique maps to a
minimum legal process, so the analyses need one agreed answer to three
questions: *which calls acquire evidence*, *which calls (or raises, or
predicates) count as consciously clearing the legal gate first*, and
*which exception predicates make warrantless acquisition lawful*.  The
gated-acquisition prover (REPRO110) and the provenance taint analysis
(REPRO111) both import these sets so "gated" means the same thing to
the prover and to the taint seeder.

The sets are keyed by terminal call name, matching how the simulation
exposes the capabilities (``isp.attach_tap``, ``image_device``,
``officer.act``, ...).  Name-based matching is the honest level of
precision for a single-package lint: the names are specific enough that
the shipped tree has no accidental collisions, and the dogfood test
(``tests/analysis/test_repo_clean.py``) keeps it that way.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.flow.cfg import iter_element_nodes

#: Terminal call names that acquire evidence and therefore require legal
#: process (or a recognised exception) first.  Drawn from the simulation
#: surface: live interception, device imaging, stored-record fetches,
#: investigator actions, and anonymity-network relay queries.
ACQUISITION_CAPABILITIES: frozenset[str] = frozenset(
    {
        "attach_tap",
        "image_device",
        "compelled_disclosure",
        "voluntary_disclosure",
        "subscriber_for_ip",
        "act",
        "query",
    }
)

#: Terminal call names whose evaluation demonstrates the caller consulted
#: the legal layer: validity checks on issued process, compliance-engine
#: evaluations, and applications to a magistrate.
GATE_CALLS: frozenset[str] = frozenset(
    {
        "satisfies",
        "is_valid",
        "valid_at",
        "current_process",
        "evaluate",
        "evaluate_many",
        "permits",
        "may_voluntarily_disclose",
        "assess",
        "apply_for",
        "apply_with",
        "apply_with_retry",
        "require_process",
    }
)

#: Raising one of these is itself a gate: the code path consciously
#: refuses to proceed on a legal shortfall.
GATE_EXCEPTIONS: frozenset[str] = frozenset(
    {"InsufficientProcess", "LegalViolation"}
)

#: Statutory-exception predicates.  Branching on one of these (or passing
#: it as an explicit keyword) is a conscious dispatch on a recognised
#: exception to the process requirement — the provider exception of
#: 18 U.S.C. 2511(2)(a)(i), consent, emergency disclosure.
EXCEPTION_PREDICATES: frozenset[str] = frozenset(
    {
        "provider_own_monitoring",
        "protects_provider",
        "user_consented",
        "consent",
        "emergency",
        "comply",
        "obtain_process",
        "private_search",
    }
)


def terminal_name(func: ast.expr) -> str | None:
    """The rightmost name of a call target (``a.b.c()`` -> ``"c"``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def capability_calls(element: ast.AST) -> Iterator[ast.Call]:
    """Acquisition-capability calls within one CFG element."""
    for node in iter_element_nodes(element):
        if (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in ACQUISITION_CAPABILITIES
        ):
            yield node


def call_claims_exception(call: ast.Call) -> bool:
    """Whether a call carries an explicit exception-predicate keyword.

    ``isp.voluntary_disclosure(..., user_consented=True)`` states the
    statutory basis at the call site; that is a gate in itself.
    """
    return any(
        keyword.arg in EXCEPTION_PREDICATES
        for keyword in call.keywords
        if keyword.arg is not None
    )


def _is_gate_node(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in GATE_CALLS:
            return True
        return call_claims_exception(node)
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc
        raised = exc.func if isinstance(exc, ast.Call) else exc
        return terminal_name(raised) in GATE_EXCEPTIONS
    if isinstance(node, ast.Name):
        return node.id in EXCEPTION_PREDICATES
    if isinstance(node, ast.Attribute):
        return node.attr in EXCEPTION_PREDICATES
    return False


def is_gate_element(element: ast.AST) -> bool:
    """Whether evaluating this CFG element crosses a legal gate.

    A gate is a validity/compliance call, a raise of a legal-shortfall
    exception, or any reference to a statutory-exception predicate
    (reading ``link.provider_own_monitoring`` in a branch test is a
    conscious dispatch on the provider exception).
    """
    return any(_is_gate_node(node) for node in iter_element_nodes(element))
