"""JSON model descriptions: loading, validation, wiring into systems,
and exporting built-ins back to the same schema.

Schema (all expressions are strings in the expression grammar):
  m, n, r: integers
  anchor: m rows of n expressions
  structure: {"g,a,b": expression} with 1-based indices and a < b
  lagrangian: expression in x*, y*
  subbundle: "adapted:r" or n rows of r expressions
  box: m pairs [lo, hi]
  hj_sections: {name: {"gamma": [n expressions], "gammabar": [...]}}
"""

from __future__ import annotations

import json
import math

from . import expr
from .algebroid import LieAlgebroid, Subbundle, base_names, fiber_names
from .dynamics import ImplicitSystem
from .errors import ConfigError, ParseError
from .hj import HJSection
from .models import ModelBundle
from .prolong import Lagrangian

__all__ = ["load_config", "bundle_from_config", "bundle_to_config"]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path!r} is not valid UTF-8 JSON: {e}") from None


def _require(cfg, key, kind):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    v = cfg[key]
    if kind is int and (isinstance(v, bool) or not isinstance(v, int)):
        raise ConfigError(f"{key!r} must be an integer")
    return v


def _parse_expr(text, where, names):
    """The expression ``text``, which may use no variable outside ``names``."""
    if not isinstance(text, str):
        raise ConfigError(f"{where} must be an expression string")
    try:
        e = expr.parse(text)
    except ParseError as err:
        raise ConfigError(f"{where}: {err}") from None
    unknown = sorted(expr.free_variables(e).difference(names))
    if unknown:
        raise ConfigError(f"{where}: undeclared variable {unknown[0]!r}")
    return e


def _expr_grid(rows, nrows, ncols, where, names):
    if not isinstance(rows, list) or len(rows) != nrows or any(
        not isinstance(r, list) or len(r) != ncols for r in rows
    ):
        raise ConfigError(f"{where} must be a {nrows}x{ncols} grid of expressions")
    return [
        [_parse_expr(e, f"{where}[{i + 1}][{j + 1}]", names) for j, e in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _interval(pair):
    """(lo, hi) as floats from a pair of JSON numbers with lo < hi and a
    finite width, else None."""
    if not isinstance(pair, list) or len(pair) != 2 or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair
    ):
        return None
    try:
        lo, hi = float(pair[0]), float(pair[1])
    except OverflowError:  # an integer beyond the float range
        return None
    return (lo, hi) if lo < hi and math.isfinite(hi - lo) else None


def bundle_from_config(cfg: dict, name: str = "config") -> ModelBundle:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    m = _require(cfg, "m", int)
    n = _require(cfg, "n", int)
    r = _require(cfg, "r", int)
    if not (m >= 0 and n >= 1 and 0 <= r <= n):
        raise ConfigError("need m >= 0, n >= 1 and 0 <= r <= n")
    xs, ys = base_names(m), fiber_names(n)
    anchor = _expr_grid(_require(cfg, "anchor", list), m, n, "anchor", xs)
    structure = {}
    raw = cfg.get("structure", {})
    if not isinstance(raw, dict):
        raise ConfigError("structure must be an object keyed by 'g,a,b'")
    for key, text in raw.items():
        try:
            g, a, b = (int(t) for t in key.split(","))
        except ValueError:
            raise ConfigError(f"bad structure key {key!r}, expected 'g,a,b'") from None
        if not (1 <= g <= n and 1 <= a < b <= n):
            raise ConfigError(f"structure key {key!r} out of range (need a < b)")
        structure[(g - 1, a - 1, b - 1)] = _parse_expr(text, f"structure[{key}]", xs)
    try:
        A = LieAlgebroid(m, n, anchor, structure)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    Lg = Lagrangian(A, _parse_expr(_require(cfg, "lagrangian", str), "lagrangian", xs + ys))
    sub = cfg.get("subbundle", f"adapted:{n}")
    if isinstance(sub, str):
        if not sub.startswith("adapted:"):
            raise ConfigError("subbundle string must look like 'adapted:r'")
        try:
            ra = int(sub.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad subbundle spec {sub!r}") from None
        if ra != r:
            raise ConfigError(f"subbundle rank {ra} disagrees with r = {r}")
        U = Subbundle.adapted_rank(A, r)
    else:
        U = Subbundle(A, r, _expr_grid(sub, n, r, "subbundle", xs))
    box = cfg.get("box", [[-1.0, 1.0]] * m)
    box = [_interval(b) for b in box] if isinstance(box, list) else None
    if box is None or len(box) != m or None in box:
        raise ConfigError(
            f"box must be {m} pairs [lo, hi] of numbers with lo < hi and finite hi - lo"
        )
    given = cfg.get("hj_sections", {})
    if not isinstance(given, dict) or not all(isinstance(p, dict) for p in given.values()):
        raise ConfigError("hj_sections must be an object of section objects")
    sections = {}
    for sname, parts in given.items():
        gamma = parts.get("gamma")
        gammabar = parts.get("gammabar")
        if (
            not isinstance(gamma, list)
            or not isinstance(gammabar, list)
            or len(gamma) != n
            or len(gammabar) != n
        ):
            raise ConfigError(
                f"hj_sections[{sname!r}] needs {n} gamma and {n} gammabar expressions"
            )
        sections[sname] = HJSection(
            n,
            m,
            [_parse_expr(e, f"hj_sections[{sname}].gamma", xs) for e in gamma],
            [_parse_expr(e, f"hj_sections[{sname}].gammabar", xs) for e in gammabar],
        )
    sys = ImplicitSystem(A, Lg, U)
    return ModelBundle(
        name,
        sys,
        tuple(box),
        cfg.get("doc", "user-defined model"),
        sections,
        None,
        None,
    )


def bundle_to_config(bundle: ModelBundle) -> dict:
    A = bundle.system.A
    U = bundle.system.U
    cfg = {
        "m": A.m,
        "n": A.n,
        "r": U.r,
        "anchor": [[str(e) for e in row] for row in A.anchor],
        "structure": {
            f"{g + 1},{a + 1},{b + 1}": str(e)
            for (g, a, b), e in sorted(A.structure.items())
        },
        "lagrangian": str(bundle.system.Lg.L),
        "subbundle": (
            f"adapted:{U.r}"
            if U.adapted
            else [[str(e) for e in row] for row in U.span]
        ),
        "box": [[lo, hi] for lo, hi in bundle.box],
        "doc": bundle.doc,
    }
    if bundle.hj_sections:
        cfg["hj_sections"] = {
            sname: {
                "gamma": [str(e) for e in s.gamma],
                "gammabar": [str(e) for e in s.gammabar],
            }
            for sname, s in bundle.hj_sections.items()
        }
    return cfg
