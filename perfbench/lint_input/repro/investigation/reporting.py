"""Tabular reports: regenerate the paper's Table 1 and experiment summaries."""

from __future__ import annotations

from repro.core.advisor import TechniqueAssessment
from repro.core.engine import ComplianceEngine
from repro.core.scenarios import Scenario
from repro.investigation.pipeline import SceneOutcome


def format_table1(
    scenarios: tuple[Scenario, ...],
    engine: ComplianceEngine | None = None,
    max_description: int = 58,
) -> str:
    """Render the paper's Table 1 with the engine's answers alongside.

    Returns:
        A fixed-width table: scene number, truncated description, the
        paper's published answer, the engine's answer, and a match mark.
    """
    engine = engine or ComplianceEngine()
    lines = [
        f"{'#':>2}  {'Scene':<{max_description}}  "
        f"{'Paper':<12} {'Engine':<28} Match",
        "-" * (max_description + 52),
    ]
    matches = 0
    for scenario in scenarios:
        ruling = engine.evaluate(scenario.action)
        engine_answer = (
            "Need" if ruling.needs_process else "No need"
        ) + f" ({ruling.required_process.display_name})"
        match = ruling.needs_process == scenario.paper_needs_process
        matches += match
        description = scenario.action.description
        if len(description) > max_description:
            description = description[: max_description - 3] + "..."
        lines.append(
            f"{scenario.number:>2}  {description:<{max_description}}  "
            f"{scenario.paper_answer:<12} {engine_answer:<28} "
            f"{'yes' if match else 'NO'}"
        )
    lines.append("-" * (max_description + 52))
    lines.append(f"agreement: {matches}/{len(scenarios)}")
    return "\n".join(lines)


def format_assessment(assessment: TechniqueAssessment) -> str:
    """Render a research-advisor verdict (paper section IV style)."""
    lines = [
        f"Technique: {assessment.name}",
        f"  Feasibility: {assessment.feasibility.value}",
        f"  Required process: {assessment.required_process.display_name}",
        f"  Private search viable: "
        f"{'yes' if assessment.private_search_viable else 'no'}",
        f"  Recommendation: {assessment.recommendation}",
    ]
    return "\n".join(lines)


def format_quick_reference(
    scenarios: tuple[Scenario, ...],
    engine: ComplianceEngine | None = None,
) -> str:
    """The paper's closing 'quick reference', enriched.

    For every scene: the answer, the process level, the exceptions that
    applied, and the citation keys behind the ruling — everything a
    researcher needs to check their own technique against the table.
    """
    engine = engine or ComplianceEngine()
    blocks = []
    for scenario in scenarios:
        ruling = engine.evaluate(scenario.action)
        answer = (
            "no process needed"
            if not ruling.needs_process
            else f"requires {ruling.required_process.display_name}"
        )
        lines = [
            f"Scene {scenario.number}: {scenario.action.description}",
            f"  paper: {scenario.paper_answer}; engine: {answer}",
        ]
        if ruling.exceptions:
            names = ", ".join(e.kind.value for e in ruling.exceptions)
            lines.append(f"  exceptions applied: {names}")
        cited = sorted(
            {key for step in ruling.steps for key in step.authorities}
        )
        lines.append(f"  authorities: {', '.join(cited)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_suppression_outcomes(outcomes: list[SceneOutcome]) -> str:
    """Render per-scene suppression results."""
    lines = [
        f"{'#':>2}  {'Needs process':<14} {'Obtained':<28} Outcome",
        "-" * 70,
    ]
    for outcome in outcomes:
        lines.append(
            f"{outcome.scenario.number:>2}  "
            f"{'yes' if outcome.ruling.needs_process else 'no':<14} "
            f"{outcome.process_obtained.display_name:<28} "
            f"{outcome.admissibility.value}"
        )
    return "\n".join(lines)
