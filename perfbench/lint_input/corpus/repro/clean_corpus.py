"""Negative corpus: lawful variants of every mutant family.

The harness asserts the dataflow rules (REPRO110-113) produce zero
findings here — each function is the gated / hashed / backed-off /
provenance-honest twin of a corpus mutant.
"""


def gated_straight_line(process, requirement, device):
    if not process.satisfies(requirement):
        raise InsufficientProcess(requirement)
    return image_device(device)


def gated_by_engine(engine, action, stream):
    engine.evaluate(action)
    return attach_tap(stream)


def gated_on_both_arms(flag, process, requirement, engine, action, device):
    if flag:
        process.satisfies(requirement)
    else:
        engine.evaluate(action)
    return image_device(device)


def exception_predicate_branch(provider, stream):
    if provider_own_monitoring(provider):
        return attach_tap(stream)
    return None


def explicit_exception_keyword(provider, account):
    return provider.voluntary_disclosure(account, emergency=True)


def gate_dominates_loop(engine, action, overlay):
    engine.evaluate(action)
    hits = []
    for label in ("le", "cp"):
        hits.extend(overlay.query(label, label))
    return hits


def hashed_before_use(process, requirement, device):
    process.satisfies(requirement)
    image = image_device(device)
    record_hash(sha256(image))
    return carve(image)


def hashed_on_every_branch(process, requirement, device, quick):
    process.satisfies(requirement)
    image = image_device(device)
    if quick:
        sha256(image)
    else:
        record_hash(sha256(image))
    return carve(image)


def retry_with_clock_advance(court, kind, clock):
    while True:
        process = court.apply_for(kind)
        if process:
            return process
        clock.advance(60)


def retry_with_policy_delay(court, kind, policy, now):
    for attempt in range(5):
        process = court.apply_for(kind)
        if process:
            return process
        now += policy.delay(attempt)
    return None


def provenance_recorded_honestly(process, requirement, device, ledger):
    process.satisfies(requirement)
    image = image_device(device)
    record_hash(sha256(image))
    ledger.add_fact("imaged", derived_from=image)
    return image


def derived_evidence_supports_new_application(
    process, requirement, relay, court
):
    process.satisfies(requirement)
    hits = relay.query("le", "cp")
    return court.apply_for("warrant", derived_from=hits)
