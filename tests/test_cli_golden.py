"""Byte-for-byte golden snapshot of the documented CLI commands.

Each entry of ``data/cli_golden.json`` holds one command line and what it
produced: its exit code, stdout and stderr verbatim (fixture and output
directories replaced by ``{FIXTURES}`` and ``{OUT}``), the warnings it
raised, and the SHA-256 of every SVG it wrote.  The commands are every
``certify`` check of the bundled ``expected.json``, ``ensemble`` and
``regime`` on each ensemble fixture, ``bound radius-improvement`` where it
applies, ``render`` on every two-dimensional fixture, ``scert examples``,
``certify`` on two one-dimensional fixtures under every mode and norm
(half of those exit 3), a small ``simulate`` run under each weight
policy (its CSV bytes), and 15 commands that fail with an ``error:`` line:
a file of the wrong kind or dimension, a missing file, a bad ``--weights``,
``--n`` or ``--window``, a bound whose preconditions do not hold or whose
arguments are missing or out of range, and ``simulate`` arguments that
``ExperimentConfig`` rejects.

A change that means to alter an output regenerates the snapshot with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints each command whose entry changed; the change shows that
difference in its review.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import warnings

import pytest

from scert import _simplex, cli

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
_ENSEMBLE_FIXTURES = ("appendix-c4.json", "fig5a.json", "fig5b.json", "fig5c.json",
                      "fig6.json")
_RENDER_FIXTURES = ("appendix-c3-cw.json", "appendix-c3-u.json", "fig1.json",
                    *_ENSEMBLE_FIXTURES)
# failing commands: exit 2 for a bad argument, file or input, exit 3 for a
# command or mode that does not apply to the file
_ERROR_COMMANDS = (
    "certify fig6.json --mode u",
    "certify no-such-file.json --mode u",
    "regime fig1.json",
    "ensemble appendix-c4.json --weights 1,x",
    "ensemble appendix-c4.json --weights 1,2,3",
    "bound radius-improvement fig5a.json",
    "bound radius-improvement",
    "bound gap-gain --rbar 0.5",
    "bound gap-gain --rbar 2 --k 3",
    "simulate --n 2,x",
    "simulate --n 1 --draws 2",
    "simulate --k 1 --draws 2",
    "render fig5a.json --out render.svg --weights 1",
    "render appendix-c2-u.json --out render.svg",
    "render fig1.json --out render.svg --window 0,1,x",
)


def golden_commands() -> list[list[str]]:
    commands = []
    for check in cli.load_expected():
        if check["kind"] == "certify":
            norm = ["--norm", check["norm"]] if "norm" in check else []
            commands.append(["certify", check["fixture"], "--mode", check["mode"], *norm])
    for fixture in _ENSEMBLE_FIXTURES:
        commands += [["ensemble", fixture], ["regime", fixture]]
    for fixture in ("appendix-c4.json", "fig5b.json"):
        commands.append(["bound", "radius-improvement", fixture])
    for fixture in _RENDER_FIXTURES:
        commands.append(["render", fixture, "--out", "render.svg"])
    commands.append(["examples"])
    for fixture in ("appendix-c2-u.json", "example-3-11-cd.json"):
        for mode in ("u", "cw", "cd", "lipschitz-u", "lipschitz-cw"):
            for norm in ([], ["--norm", "l1"], ["--norm", "linf"]):
                commands.append(["certify", fixture, "--mode", mode, *norm])
    for policy in ("uniform", "optimized"):
        commands.append(["simulate", "--k", "3", "--n", "2,3", "--draws", "4", "--seed", "1",
                         "--policy", policy])
    commands += [command.split() for command in _ERROR_COMMANDS]
    return commands


def run_command(command: list[str]) -> dict:
    """Run one command in-process and record everything it produced."""
    fixtures = os.path.dirname(str(cli.fixture_path("expected.json")))
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [str(cli.fixture_path(a)) if a.endswith(".json")
                else str(pathlib.Path(out_dir, a)) if a.endswith(".svg") else a
                for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        svgs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(pathlib.Path(out_dir).glob("*.svg"))}

    def normalize(text: str) -> str:
        return text.replace(out_dir, "{OUT}").replace(fixtures, "{FIXTURES}")

    return {"command": command, "exit_code": code, "stdout": normalize(out.getvalue()),
            "stderr": normalize(err.getvalue()),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "svg_sha256": svgs}


def _entries() -> list[dict]:
    """The snapshot's entries; none while it is being generated (the
    coverage test then fails)."""
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]


def test_snapshot_covers_the_documented_commands():
    assert [e["command"] for e in _entries()] == golden_commands()


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["command"]))
def test_command_output_is_byte_identical(entry):
    assert run_command(entry["command"]) == entry


def test_the_simplex_serves_no_region_below_three_dimensions(monkeypatch):
    # every 1D and 2D region of the documented commands takes an exact path,
    # so the simplex solves only simulate's weight LPs (n + 1 >= 3 columns)
    columns, solve_stack = [], _simplex._solve_stack
    monkeypatch.setattr(_simplex, "_solve_stack", lambda objectives, A, b, limits:
                        columns.append(A.shape[1]) or solve_stack(objectives, A, b, limits))
    for command in golden_commands():
        run_command(command)
    assert (sum(n < 3 for n in columns), len(columns)) == (0, 4)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    before = {tuple(e["command"]): e for e in _entries()}
    snapshot = {"commands": [run_command(c) for c in golden_commands()]}
    for entry in snapshot["commands"]:
        if before.get(tuple(entry["command"])) != entry:
            print("changed:", " ".join(entry["command"]), file=sys.stderr)
    GOLDEN.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(snapshot['commands'])} commands)", file=sys.stderr)
