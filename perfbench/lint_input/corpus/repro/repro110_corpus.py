"""REPRO110 mutation corpus: every marked line must be flagged.

Each function is one mutant — an acquisition reachable by at least one
path that never crosses a legal gate.  The harness asserts the rule
reports exactly the marked (line, code) pairs and nothing else.
"""


def straight_line(device):
    return image_device(device)  # expect: REPRO110


def gate_after_the_call(process, requirement, device):
    image = image_device(device)  # expect: REPRO110
    process.satisfies(requirement)
    return image


def one_armed_if(urgent, process, requirement, device):
    if urgent:
        process.satisfies(requirement)
    return image_device(device)  # expect: REPRO110


def else_arm_skips_the_gate(flag, engine, action, stream):
    if flag:
        engine.evaluate(action)
    else:
        note("skipping the check")
    return attach_tap(stream)  # expect: REPRO110


def loop_may_run_zero_times(processes, requirement, device):
    for process in processes:
        process.satisfies(requirement)
    return image_device(device)  # expect: REPRO110


def try_handler_bypasses_gate(engine, action, device):
    try:
        prepare(device)
        engine.evaluate(action)
    except RuntimeError:
        note("evaluation failed")
    return image_device(device)  # expect: REPRO110


def break_skips_the_gate(engine, action, stream):
    while pending():
        if impatient():
            break
        engine.evaluate(action)
    return attach_tap(stream)  # expect: REPRO110


def relay_query_without_process(overlay):
    return overlay.query("le", "cp", ttl=4)  # expect: REPRO110


def compelled_without_check(provider, account):
    return provider.compelled_disclosure(account)  # expect: REPRO110


def subscriber_lookup_without_process(isp, ip):
    return isp.subscriber_for_ip(ip)  # expect: REPRO110
