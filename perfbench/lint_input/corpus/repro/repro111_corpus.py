"""REPRO111 mutation corpus: tainted flows that must reach a sink.

Each function routes the product of an ungated acquisition into an
application or further acquisition through a different propagation
channel (assignment, attribute access, operators, unpacking, loop
targets, walrus, `with`, helper calls).
"""


def direct_chain(device, court):
    image = image_device(device)
    return court.apply_for(image)  # expect: REPRO111


def attribute_access(relay, court):
    hits = relay.query("le", "cp")
    peer = hits[0].peer
    return court.apply_for(peer)  # expect: REPRO111


def string_operators(relay, court):
    hits = relay.query("le", "cp")
    summary = "observed: " + str(hits)
    return court.apply_for(summary)  # expect: REPRO111


def augmented_assignment(relay, court):
    trail = "trail:"
    hits = relay.query("le", "cp")
    trail += str(hits)
    return court.apply_for(trail)  # expect: REPRO111


def tuple_unpacking(relay, court):
    first, second = relay.query("le", "cp")
    return court.apply_for(second)  # expect: REPRO111


def loop_target(relay, court):
    hits = relay.query("le", "cp")
    for hit in hits:
        court.apply_for(hit)  # expect: REPRO111


def walrus_binding(device, court):
    if (image := image_device(device)):
        court.apply_for(image)  # expect: REPRO111


def second_acquisition_as_sink(device, isp):
    image = image_device(device)
    return isp.subscriber_for_ip(image)  # expect: REPRO111


def interprocedural_return_taint(device, court):
    image = fetch_image(device)
    return court.apply_for(image)  # expect: REPRO111


def fetch_image(device):
    return image_device(device)


def positional_fact_is_not_provenance(device, ledger):
    image = image_device(device)
    ledger.add_fact(image)  # expect: REPRO111
