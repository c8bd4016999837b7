"""Rewrites that keep a program's meaning, of the kinds an app's author can
apply to slip past a detector (DroidChameleon's catalogue: Rastogi, Chen and
Jiang, ASIA CCS 2013).  Each takes IR text and a seeded rng and returns new IR
text for the same program.
"""

from __future__ import annotations

import random

from droidtriage.ir import parse_program

from oracles import render_program


def reorder(text: str, rng: random.Random) -> str:
    """The program with its classes, and the methods inside each class, shuffled."""
    program = parse_program(text)
    rng.shuffle(program.classes)
    for cls in program.classes:
        rng.shuffle(cls.methods)
    return render_program(program)
