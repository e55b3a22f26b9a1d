import builtins
import importlib.util
import re
from pathlib import Path

import algmech
from algmech.models import get_model, model_names

_spec = importlib.util.spec_from_file_location(
    "kernels", Path(__file__).resolve().parent.parent / "tools" / "kernels.py")
kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernels)


def test_the_kernel_print_has_a_line_of_each_built_in_kernel(capsys):
    real = builtins.compile
    assert kernels.main() == 0
    assert builtins.compile is real
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(model_names())
    for name, line in zip(model_names(), lines):
        labels = kernels.KERNELS if get_model(name).hj_sections else kernels.KERNELS[:3]
        assert line.startswith(f"emitted lines of {name:20s}")
        counts = re.findall(r"(<[a-z0-9 ]+>) +(\d+) \((\d+) x 0\.0/1\.0\)", line)
        assert [label for label, _, _ in counts] == list(labels), line
        assert all(int(n) > 1 for _, n, _ in counts), line


def test_emitted_captures_each_kernel_of_a_system_afresh():
    sys = get_model("harmonic-oscillator").system
    for _ in range(2):  # emitted again, not read from a cache
        sources = kernels.emitted(algmech, sys, True)
        assert [label for label, _ in sources] == list(kernels.KERNELS)
        assert all(source.startswith("def _bind(") for _, source in sources)
