"""The committed machine corpus used by the equivalence suite and the CLI.

Machines live as .mach text files next to this module; load_corpus returns
them parsed.  corpus_inputs enumerates every input over a machine's own
input alphabet up to the given length, in a fixed order.
"""

from __future__ import annotations

import itertools
import pathlib
from importlib import resources

from .instances import ResourceBudget
from .machines import MachineSpec

CORPUS_BUDGET = ResourceBudget(time_steps=16, tree_size=64)

MAX_INPUT_LEN = 6


def corpus_dir():
    return resources.files(__package__) / "corpus"


def load_corpus(path=None) -> dict[str, MachineSpec]:
    """Parse every .mach file in the corpus directory (or a custom one)."""
    from .formats import parse_instance

    base = corpus_dir() if path is None else pathlib.Path(path)
    names = sorted(p.name for p in base.iterdir() if p.name.endswith(".mach"))
    return {name[:-5]: parse_instance("machine", (base / name).read_text())
            for name in names}


def corpus_inputs(machine: MachineSpec, max_len: int = MAX_INPUT_LEN) -> list[str]:
    alphabet = machine.input_alphabet()
    out = [""]
    for length in range(1, max_len + 1):
        if not alphabet:
            break
        out.extend("".join(w) for w in itertools.product(alphabet, repeat=length))
    return out
