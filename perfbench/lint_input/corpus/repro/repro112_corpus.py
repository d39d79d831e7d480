"""REPRO112 mutation corpus: images used before a hash checkpoint."""


def plain_use_before_hash(device):
    image = image_device(device)
    return carve(image)  # expect: REPRO112


def hash_only_on_one_branch(device, quick):
    image = image_device(device)
    if not quick:
        sha256(image)
    return carve(image)  # expect: REPRO112


def hash_after_the_use(device):
    image = image_device(device)
    summary = carve(image)  # expect: REPRO112
    record_hash(sha256(image))
    return summary


def use_inside_loop(devices):
    for device in devices:
        image = image_device(device)
        upload(image)  # expect: REPRO112


def passed_to_helper(device):
    image = image_device(device)
    return analyze(image, deep=True)  # expect: REPRO112


def returned_raw(device):
    image = image_device(device)
    return wrap(image)  # expect: REPRO112


def hash_skipped_by_exception(device):
    image = image_device(device)
    try:
        prepare()
    except RuntimeError:
        return carve(image)  # expect: REPRO112
    record_hash(sha256(image))
    return carve(image)


def reassigned_then_imaged_again(device, other):
    image = image_device(device)
    record_hash(sha256(image))
    image = image_device(other)
    return carve(image)  # expect: REPRO112


def two_images_one_hashed(device, other):
    first = image_device(device)
    second = image_device(other)
    record_hash(sha256(first))
    return carve(second)  # expect: REPRO112


def attribute_use_counts(device):
    image = image_device(device)
    return image.partitions()  # expect: REPRO112
