import json

import numpy as np
import pytest

from algmech.algebroid import BasePoint
from algmech.config import bundle_from_config, bundle_to_config, load_config
from algmech.errors import ConfigError
from algmech.models import get_model, model_names


def test_round_trip_preserves_residuals():
    rng = np.random.default_rng(55)
    # a power of a power is written back in parentheses
    quartic = bundle_from_config({"m": 1, "n": 1, "r": 1, "anchor": [["1"]],
                                  "lagrangian": "0.5 * y1^2 - (x1^2)^2"}, name="quartic")
    for b in [*map(get_model, model_names()), quartic]:
        cfg = bundle_to_config(b)
        # force a serialization pass through actual JSON text
        b2 = bundle_from_config(json.loads(json.dumps(cfg)), name=b.name)
        assert b2.system.Lg.L == b.system.Lg.L
        if b.box:
            pts = [
                BasePoint([rng.uniform(lo, hi) for lo, hi in b.box])
                for _ in range(20)
            ]
        else:
            pts = [BasePoint(np.zeros(0))]
        r1 = b.system.A.validate_structure(pts, 1e-10)
        r2 = b2.system.A.validate_structure(pts, 1e-10)
        assert abs(r1.max_residual_eq1 - r2.max_residual_eq1) <= 1e-14
        assert abs(r1.max_residual_eq2 - r2.max_residual_eq2) <= 1e-14
        assert b2.system.U.r == b.system.U.r


def test_round_trip_preserves_hj_sections():
    b = get_model("harmonic-oscillator")
    b2 = bundle_from_config(bundle_to_config(b))
    s, s2 = b.hj_sections["default"], b2.hj_sections["default"]
    x = BasePoint([0.4])
    assert s.velocity(x) == s2.velocity(x)
    assert s.momentum(x) == s2.momentum(x)


def test_config_validation_errors():
    good = bundle_to_config(get_model("affine-rank2"))

    def broken(**kw):
        cfg = dict(good)
        cfg.update(kw)
        return cfg

    with pytest.raises(ConfigError):
        bundle_from_config(broken(m=None))
    # a JSON boolean is not an integer, though bool is an int subclass
    for key, flag in (("m", True), ("n", True), ("r", False)):
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
            bundle_from_config(broken(**{key: flag}))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(anchor=[["1"]]))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(structure={"2,2,1": "1"}))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(structure={"nope": "1"}))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(lagrangian="0.5 * y1^2 +"))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(subbundle="adapted:1"))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(box=[[1.0, -1.0]]))
    with pytest.raises(ConfigError):
        bundle_from_config(broken(hj_sections={"s": {"gamma": ["1"]}}))
    # every expression may use only the model's own variables: x1..xm, and
    # y1..yn in the Lagrangian
    for change, where, name in (
        ({"lagrangian": "0.5 * y1^2 + z9"}, "lagrangian", "z9"),
        ({"lagrangian": "0.5 * y1^2 + y3"}, "lagrangian", "y3"),
        ({"anchor": [["y1", "1"]]}, r"anchor\[1\]\[1\]", "y1"),
        ({"structure": {"1,1,2": "x1 * p1"}}, r"structure\[1,1,2\]", "p1"),
        ({"subbundle": [["1", "0"], ["0", "x2"]]}, r"subbundle\[2\]\[2\]", "x2"),
        ({"hj_sections": {"s": {"gamma": ["q", "0"], "gammabar": ["0", "0"]}}},
         r"hj_sections\[s\]\.gamma", "q"),
        ({"hj_sections": {"s": {"gamma": ["0", "0"], "gammabar": ["x1", "y1"]}}},
         r"hj_sections\[s\]\.gammabar", "y1"),
    ):
        with pytest.raises(ConfigError, match=f"^{where}: undeclared variable '{name}'$"):
            bundle_from_config(broken(**change))
    missing = dict(good)
    del missing["lagrangian"]
    with pytest.raises(ConfigError):
        bundle_from_config(missing)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_explicit_subbundle_grid():
    cfg = bundle_to_config(get_model("suslov"))
    cfg["subbundle"] = [["1", "0"], ["0", "1"], ["0", "0"]]
    b = bundle_from_config(cfg)
    assert not b.system.U.adapted
    assert b.system.U.member(BasePoint(np.zeros(0)), [0.2, -0.3, 0.0])
