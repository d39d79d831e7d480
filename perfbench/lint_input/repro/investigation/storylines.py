"""Complete investigation storylines from the paper, runnable end to end.

Three narratives the paper walks through in prose, each implemented
against the real substrates:

* :func:`ip_traceback_storyline` — section III.A.1(a): victim reports an
  attacking IP, a subpoena turns it into a subscriber identity, the
  identity supports probable cause, a warrant issues, the seized drive is
  imaged and hash-searched, and a suppression hearing closes the loop
  (with the *Crist* error available as the non-compliant branch);
* :func:`watermark_situation_one` — section IV.B situation one: law
  enforcement controls a seized server, obtains a pen/trap court order,
  watermarks the server's flow to the suspect through an anonymity
  network, and identifies the subscriber from rate observations;
* :func:`watermark_situation_two` — section IV.B situation two: two
  campus administrators run the same watermark privately between their
  own gateways and hand law enforcement a report that supports a court
  order.
"""

from __future__ import annotations

import dataclasses

from repro.anonymity.onion import OnionNetwork
from repro.core.advisor import ResearchAdvisor
from repro.core.engine import ComplianceEngine
from repro.core.enums import Actor, ProcessKind, Standard
from repro.court.application import Fact
from repro.court.suppression import SuppressionHearing, SuppressionOutcome
from repro.evidence.custody import ChainOfCustody
from repro.evidence.items import EvidenceItem, derive
from repro.investigation.case import Case, articulable_facts, ip_address_fact
from repro.investigation.investigator import Investigator
from repro.netsim.engine import Simulator
from repro.storage.blockdev import BlockDevice, image_device
from repro.storage.filesystem import SimpleFilesystem
from repro.storage.hashing import KnownFileSet
from repro.techniques.hash_search import HashSearchTechnique
from repro.techniques.traffic import PoissonFlow
from repro.techniques.watermark import DsssWatermarkTechnique


@dataclasses.dataclass(frozen=True)
class StorylineReport:
    """Outcome of one storyline run.

    Attributes:
        title: Which storyline ran.
        steps: Narrated steps, in order.
        evidence: Every evidence item produced.
        suppression: The closing hearing's outcome (``None`` if the
            storyline ends before court).
        succeeded: Whether the investigation achieved its goal *with
            admissible evidence*.
    """

    title: str
    steps: tuple[str, ...]
    evidence: tuple[EvidenceItem, ...]
    suppression: SuppressionOutcome | None
    succeeded: bool


def ip_traceback_storyline(
    comply: bool = True, engine: ComplianceEngine | None = None
) -> StorylineReport:
    """Section III.A.1(a): IP -> subpoena -> warrant -> hash search.

    Args:
        comply: ``True`` runs by the book; ``False`` skips the warrant
            before the hash search (the *Crist* error) so the hits and
            their fruits are suppressed.
    """
    engine = engine or ComplianceEngine()
    steps: list[str] = []
    officer = Investigator("det. okafor", engine=engine)
    case = Case("op-driftnet", "intrusion into the victim's server")

    case.add_fact(ip_address_fact("10.0.3.77", "intrusion"))
    steps.append("victim reports attacking IP 10.0.3.77")

    assert officer.apply_for(ProcessKind.SUBPOENA, case, time=1.0).granted
    from repro.core.action import InvestigativeAction
    from repro.core.context import EnvironmentContext
    from repro.core.enums import DataKind, Place, Timing

    identity = officer.act(
        InvestigativeAction(
            description="compel subscriber identity behind 10.0.3.77",
            actor=Actor.GOVERNMENT,
            data_kind=DataKind.SUBSCRIBER_INFO,
            timing=Timing.STORED,
            context=EnvironmentContext(place=Place.THIRD_PARTY_PROVIDER),
        ),
        time=2.0,
        content="subscriber: R. Mallory, 5 Elm St",
    )
    steps.append("subpoena to the ISP identifies R. Mallory")
    case.add_suspect("R. Mallory")

    if comply:
        decision = officer.apply_for(
            ProcessKind.SEARCH_WARRANT,
            case,
            time=3.0,
            target_place="5 Elm St, Mallory residence",
            target_items=("computers", "storage media"),
        )
        assert decision.granted
        steps.append("search warrant issued on probable cause")
    else:
        steps.append("officer skips the warrant (the Crist error)")

    fs = SimpleFilesystem(BlockDevice(n_blocks=256, block_size=64))
    fs.write_file("thesis.txt", "chapter one")
    fs.write_file("cp-0042.jpg", "JPEG[contraband 42]GEPJ")
    fs.write_file("cp-0043.jpg", "JPEG[contraband 43]GEPJ")
    fs.delete_file("cp-0043.jpg")
    known = KnownFileSet.from_contents(
        ["JPEG[contraband 42]GEPJ", "JPEG[contraband 43]GEPJ"]
    )
    image = image_device(fs.device)
    assert image.sha256() == fs.device.sha256()
    steps.append("seized drive imaged; image hash verified")

    technique = HashSearchTechnique(known)
    report = technique.run(fs)
    hits = officer.act(
        technique.required_actions()[0],
        time=4.0,
        content="; ".join(h.file_name for h in report.hits),
        description="contraband hash hits",
        comply=False,
        derived_from=(identity.evidence_id,),
    )
    steps.append(
        f"hash search: {report.hit_count} hits across "
        f"{report.files_examined} files"
    )
    analysis = derive(
        hits, "forensic analysis report", "timeline + EXIF", hits.action
    )
    officer.evidence.append(analysis)

    chain = ChainOfCustody(hits, custodian=officer.name, time=4.0)
    chain.transfer("evidence locker", time=5.0)

    outcome = SuppressionHearing(engine).hear(
        officer.evidence, custody={hits.evidence_id: chain}
    )
    steps.append(
        f"suppression hearing: {len(outcome.admitted)} admitted, "
        f"{len(outcome.suppressed)} suppressed"
    )
    succeeded = any(
        item is hits for item in outcome.admitted
    )
    return StorylineReport(
        title="IP traceback (III.A.1(a))",
        steps=tuple(steps),
        evidence=tuple(officer.evidence),
        suppression=outcome,
        succeeded=succeeded,
    )


def watermark_situation_one(
    n_candidates: int = 6,
    seed: int = 17,
    engine: ComplianceEngine | None = None,
) -> StorylineReport:
    """Section IV.B situation one: the court-ordered watermark traceback."""
    engine = engine or ComplianceEngine()
    steps: list[str] = []
    officer = Investigator("agent bea", engine=engine)
    case = Case(
        "op-lighthouse",
        "identify the anonymous downloader of a seized server's contraband",
    )
    case.add_fact(
        articulable_facts(
            "server logs show an anonymized client fetching contraband "
            "hourly"
        )
    )
    decision = officer.apply_for(ProcessKind.COURT_ORDER, case, time=0.5)
    assert decision.granted
    steps.append("pen/trap court order issued on specific articulable facts")

    technique = DsssWatermarkTechnique()
    assessment = technique.assess(ResearchAdvisor(engine))
    assert assessment.required_process is ProcessKind.COURT_ORDER
    steps.append(
        f"advisor confirms the technique needs a "
        f"{assessment.required_process.display_name}"
    )

    sim = Simulator()
    network = OnionNetwork(sim, n_relays=20, seed=seed)
    circuits = [
        network.build_circuit(f"subscriber-{i}", "seized-server")
        for i in range(n_candidates)
    ]
    watermarker = technique.watermarker(seed=seed + 1)
    watermarker.embed(circuits[0], start=1.0)
    for index, circuit in enumerate(circuits[1:], 1):
        PoissonFlow(
            rate=technique.config.base_rate, seed=seed + 10 + index
        ).schedule(circuit, start=1.0, duration=watermarker.duration)
    sim.run()
    detector = technique.detector()
    results = [
        detector.detect(c.client_arrival_times(), start=1.0, max_offset=0.8)
        for c in circuits
    ]
    identified = [i for i, r in enumerate(results) if r.detected]
    steps.append(
        f"watermark despread at {n_candidates} candidate ISPs; "
        f"identified subscriber(s): {identified}"
    )

    observe_action = technique.required_actions()[1]
    evidence = officer.act(
        observe_action,
        time=float(sim.now),
        content=f"subscriber-0 carries the watermark "
        f"(corr={results[0].correlation:.3f})",
        description="watermark rate observations at the suspect's ISP",
    )
    outcome = SuppressionHearing(engine).hear([evidence])
    steps.append(
        f"suppression hearing: evidence "
        f"{'admitted' if not outcome.suppressed else 'suppressed'}"
    )
    return StorylineReport(
        title="DSSS watermark, situation one (IV.B)",
        steps=tuple(steps),
        evidence=(evidence,),
        suppression=outcome,
        succeeded=identified == [0] and not outcome.suppressed,
    )


def watermark_situation_two(
    seed: int = 23, engine: ComplianceEngine | None = None
) -> StorylineReport:
    """Section IV.B situation two: the private-search route.

    Two campus IT administrators suspect covert anonymized traffic
    between their campuses, run the watermark between their own gateways
    (a private search needing no process), and report to law enforcement;
    the report supports a court order.
    """
    engine = engine or ComplianceEngine()
    steps: list[str] = []

    technique = DsssWatermarkTechnique()
    assessment = technique.assess(ResearchAdvisor(engine))
    assert assessment.private_search_viable
    steps.append("advisor: workable as a private search on own gateways")

    sim = Simulator()
    network = OnionNetwork(sim, n_relays=12, seed=seed)
    suspect_flow = network.build_circuit("campus-b-host", "campus-a-host")
    decoy_flow = network.build_circuit("campus-b-other", "elsewhere")
    watermarker = technique.watermarker(seed=seed + 1)
    watermarker.embed(suspect_flow, start=0.5)
    PoissonFlow(rate=technique.config.base_rate, seed=seed + 2).schedule(
        decoy_flow, start=0.5, duration=watermarker.duration
    )
    sim.run()
    detector = technique.detector()
    hit = detector.detect(
        suspect_flow.client_arrival_times(), start=0.5, max_offset=0.8
    )
    miss = detector.detect(
        decoy_flow.client_arrival_times(), start=0.5, max_offset=0.8
    )
    steps.append(
        f"admins correlate gateways: suspect flow corr="
        f"{hit.correlation:.3f} (detected={hit.detected}), unrelated "
        f"flow corr={miss.correlation:.3f}"
    )

    # The private report becomes the officer's showing.
    officer = Investigator("det. cho", engine=engine)
    case = Case("op-relay", "anonymized covert channel between campuses")
    case.add_fact(
        Fact(
            description=(
                "campus administrators' private watermark report ties "
                "campus-b host to campus-a host"
            ),
            supports=Standard.SPECIFIC_AND_ARTICULABLE_FACTS,
        )
    )
    decision = officer.apply_for(ProcessKind.COURT_ORDER, case, time=1.0)
    steps.append(
        f"LE uses the private report to obtain a court order: "
        f"{'granted' if decision.granted else 'denied'}"
    )
    return StorylineReport(
        title="DSSS watermark, situation two (IV.B)",
        steps=tuple(steps),
        evidence=(),
        suppression=None,
        succeeded=hit.detected and not miss.detected and decision.granted,
    )
