"""REPRO113 mutation corpus: retry loops that never advance the clock."""


def while_true_retry(court, kind):
    while True:
        process = court.apply_for(kind)  # expect: REPRO113
        if process:
            return process


def bounded_for_retry(court, kind):
    for _ in range(5):
        process = court.apply_for(kind)  # expect: REPRO113
        if process:
            return process
    return None


def apply_with_retry_loop(court, application):
    while True:
        process = court.apply_with(application)  # expect: REPRO113
        if process:
            return process


def review_resubmission(magistrate, application):
    granted = None
    while granted is None:
        granted = magistrate.review(application)  # expect: REPRO113
    return granted


def conditional_retry(court, kind, eager):
    while True:
        if eager:
            process = court.apply_for(kind)  # expect: REPRO113
            if process:
                return process


def retry_after_rejection(court, kind, log):
    attempts = 0
    while attempts < 9:
        attempts += 1
        process = court.apply_for(kind)  # expect: REPRO113
        if process is None:
            log.append(attempts)
            continue
        return process
    return None


def helper_submits_inside_loop(court, kind):
    for _ in range(3):
        process = submit_once(court, kind)  # expect: REPRO113
        if process:
            return process
    return None


def submit_once(court, kind):
    return court.apply_for(kind)


def nested_loop_retry(courts, kind):
    for court in courts:
        while True:
            process = court.apply_for(kind)  # expect: REPRO113
            if process:
                break
    return None


def retry_with_wall_sleep_only(court, kind, os_sleep):
    while True:
        process = court.apply_for(kind)  # expect: REPRO113
        if process:
            return process
        os_sleep()


def two_applications_one_loop(court, warrant, subpoena):
    while True:
        first = court.apply_for(warrant)  # expect: REPRO113
        second = court.apply_for(subpoena)
        if first and second:
            return first, second
