"""API-deprecation lint: fail CI when the repo uses its own shims.

Retired spellings (``Hamiltonian.energy_batch``, ``repro.util.timers``,
``.profiled(``, the scalar ``propose``/``Move``, the separate conditional
MADE classes, the ``step_batch``/``commit_batch`` path, ``CurrentLogQCache``,
the VAE's ``"repair"`` mode, ``conditioner=``, ``MultiSwapProposal``, the
campaign auto-tune) must not creep back in,
and live shims exist for *downstream* callers only; in-repo code must use
the canonical spellings or shims can never retire.  This lint is a plain
line-grep — fast, zero imports of the checked code — over
``src/``, ``tests/``, ``benchmarks/`` and ``examples/``.

A line may opt out with a trailing ``# lint-api: allow`` marker (used by
the tests that exercise the shims themselves).

Run as ``python -m repro tools lint-api [root]``; exits 1 on any hit.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

__all__ = ["DEPRECATED_PATTERNS", "lint_api", "main"]

#: (compiled pattern, human-readable reason, path prefix, excluded prefixes)
#: — one entry per retired path.  A non-empty prefix scopes the rule to
#: files under that subtree (repo-relative, posix), so idioms can be banned
#: where a faster canonical spelling exists without outlawing them
#: repo-wide; excluded prefixes carve out subtrees where the idiom remains
#: legitimate.
DEPRECATED_PATTERNS: list[tuple[re.Pattern[str], str, str, tuple[str, ...]]] = [
    (
        re.compile(r"repro\.util\.timers"),
        "repro.util.timers was removed; import Timer/TimerRegistry from repro.obs.tracing",
        "",
        (),
    ),
    (
        re.compile(r"\.energy_batch\("),
        "Hamiltonian.energy_batch() was removed; call .energies()",
        "",
        (),
    ),
    (
        re.compile(r"\.profiled\("),
        "Hamiltonian/Proposal.profiled() was removed; a profiler observes the "
        "block engine instead (team.enable_profiling(...), DESIGN §10)",
        "src/",
        (),
    ),
    (
        re.compile(r"\bdef propose\(|\.propose\b|(?<![\w.])Move\("),
        "the scalar Proposal.propose()/Move API was removed; every move is "
        "proposed as a batch: propose_many(configs[None], ...) for one row",
        "",
        (),
    ),
    (
        re.compile(r"\bConditionalMADE\w*|repro\.nn\.models\.cmade|repro\.proposals\.dl_cmade"),
        "ConditionalMADE/ConditionalMADEConfig/ConditionalMADEProposal were folded "
        "into MADE: MADEConfig(cond_dim=...) and MADEProposal(model, cond=...)",
        "",
        (),
    ),
    (
        re.compile(r"\bstep_batch\b|\bcommit_batch\b|\bnull_proposals\b"),
        "the step_batch/commit_batch stepping path was removed; every "
        "proposal draws a block: team.steps(n) (DESIGN §16)",
        "",
        (),
    ),
    (
        re.compile(r"\bCurrentLogQCache\b"),
        "CurrentLogQCache was removed; the block engine holds each row's "
        "current log q for the length of a block (DESIGN §16)",
        "",
        (),
    ),
    (
        re.compile(r"\brepair_composition\b|composition\s*=\s*[\"']repair[\"']"
                   r"|repro\.proposals\.composition"),
        "the VAE's biased \"repair\" mode was removed; use composition=\"reject\" "
        "(exact), or MADEProposal(model) for decoding on the composition",
        "",
        (),
    ),
    (
        re.compile(r"\bconditioner\s*="),
        "MADEProposal(conditioner=...) was removed; a condition is a constant "
        "of the proposal: MADEProposal(model, cond=vector)",
        "",
        (),
    ),
    (
        re.compile(r"\bMultiSwapProposal\b"),
        "MultiSwapProposal was removed; use SwapProposal",
        "",
        (),
    ),
    (
        re.compile(r"\bplan_campaign\b|\bCampaignPlan\b|repro\.machine\.autotune"),
        "the REWL campaign auto-tune was removed; pass n_windows, "
        "walkers_per_window and overlap to REWLConfig",
        "",
        (),
    ),
    (
        re.compile(r"one_hot\([^()]*\)\s*\[None\]"),
        "per-row one_hot(...)[None] in proposal code defeats the batched "
        "encoder; encode the 2-D batch directly (one_hot(x[None], ...) or "
        "repro.nn.encode_one_hot)",
        "src/repro/proposals/",
        (),
    ),
    (
        # The memory-lean tier (DESIGN.md §17) stores neighbor/pair index
        # tables as int32 and configurations as int8; an int64 allocation
        # in the kernel layer silently doubles the dominant footprint at
        # ultra-large N.  Accumulators (pair counts, bincounts) are exempt
        # via the allow marker — they are O(S²), not O(N·z).
        re.compile(r"dtype\s*=\s*(np\.)?int64"),
        "int64 allocation under src/repro/kernels/: index tables are "
        "INDEX_DTYPE (int32) and configs CONFIG_DTYPE (int8) per DESIGN "
        "§17; use the named dtype, or mark '# lint-api: allow' for an "
        "O(S²) accumulator",
        "src/repro/kernels/",
        (),
    ),
    (
        # Bare print() — not def print(...), not obj.print(...).  Library
        # code must narrate through structured events (repro.obs) so output
        # reaches traces/dashboards; stdout rendering is the job of the obs
        # CLI tools and the __main__ entry point.
        re.compile(r"(?<!def )(?<![\w.])print\("),
        "bare print() in library code; emit structured events (repro.obs) "
        "or mark the line '# lint-api: allow' for a final human render",
        "src/repro/",
        ("src/repro/obs/", "src/repro/tools/", "src/repro/__main__.py"),
    ),
]

#: Marker suppressing the lint for a single line.
ALLOW_MARKER = "# lint-api: allow"

#: Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "tests", "benchmarks", "examples")

#: Subtrees never scanned (the lint's own pattern table would match itself).
EXCLUDE_PARTS = ("repro/tools", "egg-info", "__pycache__")


def _iter_files(root: Path):
    for base in SCAN_DIRS:
        directory = root / base
        if not directory.is_dir():
            continue
        for path in sorted(directory.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if any(part in rel for part in EXCLUDE_PARTS):
                continue
            yield path


def lint_api(root: str | Path = ".") -> list[tuple[str, int, str, str]]:
    """Scan the tree; return ``(relpath, lineno, line, reason)`` violations."""
    root = Path(root).resolve()
    violations: list[tuple[str, int, str, str]] = []
    for path in _iter_files(root):
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):  # unreadable file: not lintable
            continue
        for lineno, line in enumerate(text.splitlines(), start=1):
            if ALLOW_MARKER in line:
                continue
            for pattern, reason, prefix, excludes in DEPRECATED_PATTERNS:
                if prefix and not rel.startswith(prefix):
                    continue
                if any(rel.startswith(ex) for ex in excludes):
                    continue
                if pattern.search(line):
                    violations.append((rel, lineno, line.strip(), reason))
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = list(argv or [])
    if argv and argv[0] in ("-h", "--help"):
        print("usage: python -m repro tools lint-api [root]")
        return 0
    root = argv[0] if argv else "."
    violations = lint_api(root)
    for rel, lineno, line, reason in violations:
        print(f"{rel}:{lineno}: {line}\n    ^ {reason}", file=sys.stderr)
    if violations:
        print(f"lint-api: {len(violations)} deprecated-API use(s)", file=sys.stderr)
        return 1
    print("lint-api: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
