"""The source of the kernels the library emits, as it is compiled.

    PYTHONPATH=src python tools/kernels.py

prints, for each built-in model, the lines of source compiled for its
Lagrangian's jet (``<jet2>``), its adapted field with the RK4 step
(``<adapted field>``) and its midpoint step (``<midpoint step>``), and,
for a model with an HJ section, its base-flow step (``<base flow>``);
next to each, the number of products with a literal 0.0 or ±1.0 factor
left in it.  Nothing is gated: the exit status is 0.

The source is captured by wrapping ``builtins.compile``, so the same
capture reads the kernels of any tree of the library; ``tools/digests.py``
hashes them in its ``emitted`` group.
"""

from __future__ import annotations

import builtins
import contextlib
import re

# a product with a literal 0.0 or ±1.0 factor, in the emitters' spellings
UNIT = re.compile(r"(?<![\w.)])(?:-?[01]\.0|\(-[01]\.0\)) \*|\* (?:-?[01]\.0|\(-[01]\.0\))(?![\w.(])")
KERNELS = ("<jet2>", "<adapted field>", "<midpoint step>", "<base flow>")


@contextlib.contextmanager
def compiled():
    """A list that gets the (file name, source) of everything
    ``builtins.compile`` compiles inside the block."""
    real, sources = builtins.compile, []

    def capture(source, filename, *args, **kwargs):
        sources.append((filename, source))
        return real(source, filename, *args, **kwargs)

    builtins.compile = capture
    try:
        yield sources
    finally:
        builtins.compile = real


def emitted(lib, system, flow: bool) -> list:
    """(file name, source) of each kernel emitted afresh for ``system``:
    its Lagrangian's jet, adapted field and midpoint step, and with
    ``flow`` its algebroid's base-flow step."""
    Lg, r = system.Lg, system.U.r
    with compiled() as sources:
        lib.expr._build_jet2(Lg.L, Lg._names)
        lib.dynamics._emit_field(Lg, r)
        lib.dynamics._emit_midpoint(Lg, r)
        if flow:
            lib.hj._emit_flow(system.A)
    return sources


def main() -> int:
    import algmech

    for name in algmech.model_names():
        bundle = algmech.get_model(name)
        lines, units = {}, {}
        for filename, source in emitted(algmech, bundle.system, bool(bundle.hj_sections)):
            lines[filename] = lines.get(filename, 0) + source.count("\n") + 1
            units[filename] = units.get(filename, 0) + len(UNIT.findall(source))
        kernels = KERNELS if bundle.hj_sections else KERNELS[:3]
        print(f"emitted lines of {name:20s}",
              *(f"{k} {lines.get(k, 0):4d} ({units.get(k, 0)} x 0.0/1.0)" for k in kernels))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
