import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parent.parent / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _leaves(*objs) -> tuple:
    """The sha256 and the leaves of one group fed ``objs``."""
    g = digests._Group()
    for obj in objs:
        digests._feed(g, obj)
    return g.sha.hexdigest(), g.parts[""]


def test_a_group_hashes_what_it_did_before_it_kept_leaves():
    # the bytes fed to the hash are those of the hash-only form, so the
    # digests of older trees stay comparable
    sha, _ = _leaves(["pendulum", 0.5, np.array([1.0, -0.0]), ValueError("bad 3")])
    ref = digests.hashlib.sha256()
    for part in (b"[", b"'pendulum'", b";", (0.5).hex().encode(), b";", b"<f8(2,)",
                 np.array([1.0, -0.0]).tobytes(), b";", b"ValueError: bad 3", b";", b"]", b";"):
        ref.update(part)
    assert sha == ref.hexdigest()


def test_deviation_is_the_largest_absolute_one_over_the_floats_text_included():
    _, a = _leaves([np.array([1.0, 2.0, 0.0]), "t=0.25 E=1.5e-3"])
    _, b = _leaves([np.array([1.0, 2.0 + 3e-12, -0.0]), "t=0.25 E=1.6e-3"])
    assert digests._deviation(a, a) == "max abs dev 0.0e+00 (0 of 5 floats differ)"
    # -0.0 differs from 0.0 in a bit, by nothing
    assert digests._deviation(a, b) == "max abs dev 1.0e-04 (3 of 5 floats differ)"


def test_deviation_names_the_first_difference_in_structure():
    _, traj = _leaves(["pendulum", np.array([1.0, 2.0])])
    _, error = _leaves(["pendulum", RuntimeError("Newton failed at step 2")])
    _, longer = _leaves(["pendulum", np.array([1.0, 2.0])], 0.5)
    assert digests._deviation(traj, error).startswith("structure differs at leaf 2: '<f8(2,)'")
    assert digests._deviation(traj, longer) == "structure differs: 6 leaves against 7"
    assert digests._deviation(["x=# y=#"], ["x=# z=#"]) == (
        "structure differs at leaf 0: 'x=# y=#' against 'x=# z=#'")
    _, nan = _leaves([np.array([1.0, np.nan])])
    _, one = _leaves([np.array([1.0, 1.0])])
    assert digests._deviation(nan, one) == "max abs dev inf (1 of 2 floats differ)"
