"""Compare the data artifacts that two qbath checkouts write for the same inputs.

    python3 tools/compare_artifacts.py A B [--config NAME ...] [--workloads]

Each checkout runs in a fresh interpreter that imports qbath from its own
``src``.  It runs the sample configs ``configs/*.json`` (all of them, or the
NAMEs given), each with the subcommand its file name starts with, and with
``--workloads`` also the jobs of the benchmark's three workloads at the seeds
1, 2 and 3, each seed in its own ``<workload>/seed-<seed>`` subtree, whose
configs come from the checkout's ``perfbench/workloads.py`` (imported, never
changed).  In the tool's own copy of those configs every propagate job also
writes the formats ``csv`` and ``sidecar``, so that the rows themselves are
compared, not only their summary.  Every data file is then compared across
the two output trees.  A
line says ``identical``, or gives the largest relative deviation
|a - b| / max(|a|, |b|) and the largest absolute deviation |a - b| over the
numbers of the file: the CSV cells, the JSON numbers, or the float64 parts of
the complex128 sidecar ``propagator_bd.bin``.  A number that is zero up to
rounding, such as a sum-rule defect, reads an O(1) relative deviation; its
absolute one says whether that is rounding.
``manifest.json`` is skipped: it records the wall time and the versions.

The exit status is 0 when every file is identical, 1 when any differs, and 2
when a job fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("validate", "propagate", "observables", "purity", "ensemble", "master-eq",
               "rwa-compare", "n-sweep")
WORKLOADS = ("spectral", "cat-purity", "configs")
WORKLOAD_SEEDS = (1, 2, 3)
SKIPPED = {"manifest.json"}


def _subcommand(stem: str) -> str:
    """The subcommand a sample config's file name starts with."""
    for sub in sorted(SUBCOMMANDS, key=len, reverse=True):
        if stem.startswith(sub + "-"):
            return sub
    raise SystemExit(f"compare_artifacts: no subcommand for config {stem!r}")


def _jobs(root: Path, names: list[str] | None, workloads: bool, work: Path):
    """(output name, subcommand, config path) of every job of the checkout at root."""
    paths = sorted((root / "configs").glob("*.json"))
    if names:
        known = {path.stem: path for path in paths}
        missing = sorted(set(names) - set(known))
        if missing:
            raise SystemExit(f"compare_artifacts: no sample config {', '.join(missing)}")
        paths = [known[name] for name in names]
    jobs = [(f"configs/{path.stem}", _subcommand(path.stem), path) for path in paths]
    if workloads:
        spec = importlib.util.spec_from_file_location(
            "qbath_workloads", root / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
        for workload in WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                tree = f"{workload}/seed-{seed}"
                cfg_dir = work / "workload-configs" / tree
                for job in module.write_configs(workload, seed, "full", cfg_dir):
                    config = cfg_dir / f"{job.config}.json"
                    if job.subcommand == "propagate":
                        _add_row_formats(config)
                    jobs.append((f"{tree}/{job.name}", job.subcommand, config))
    return jobs


def _add_row_formats(config: Path) -> None:
    """Make the propagate config file at config also write its rows: csv and sidecar."""
    doc = json.loads(config.read_text())
    formats = doc.setdefault("outputs", {}).setdefault("formats", ["csv", "json"])
    formats += [fmt for fmt in ("csv", "sidecar") if fmt not in formats]
    config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run_checkout(out: Path, names: list[str] | None, workloads: bool) -> int:
    """Run every job of the checkout in the working directory, writing under out."""
    root = Path.cwd()
    from qbath import cli  # the checkout's own src is first on the path

    if Path(cli.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SystemExit(f"compare_artifacts: imported qbath from {cli.__file__}, not {root}")
    failed = 0
    for name, sub, config in _jobs(root, names, workloads, out / "_work"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([sub, "--config", str(config), "--out", str(out / name)])
        if code != 0:
            print(f"{root}: {name} exited {code}", file=sys.stderr)
            failed = 1
    return failed


def _numbers(path: Path):
    """(structure, float values) of a data file; equal structures make values comparable."""
    import numpy as np

    data = path.read_bytes()
    if path.suffix == ".bin":  # two uint64 words, then complex128 arrays
        return data[:16], np.frombuffer(data[16:], dtype="<f8")
    if path.suffix == ".csv":
        lines = data.decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        return (lines[0], [len(row) for row in rows]), np.array(
            [float(cell) for row in rows for cell in row])
    if path.suffix == ".json":
        values = []

        def shape(node):
            if isinstance(node, dict):
                return {key: shape(child) for key, child in node.items()}
            if isinstance(node, list):
                return [shape(child) for child in node]
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                values.append(float(node))
                return None
            return node

        return shape(json.loads(data)), np.array(values)
    return data, np.zeros(0)


def _deviations(a, b) -> tuple[float, float]:
    """Largest |a - b| / max(|a|, |b|) and largest |a - b|.

    Equal entries (NaN against NaN too) count 0; a NaN against a number or
    unequal infinities count inf.
    """
    import numpy as np

    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        absolute = np.abs(a - b)
        relative = absolute / np.maximum(np.abs(a), np.abs(b))

    def largest(dev) -> float:
        return float(np.where(same, 0.0, np.where(np.isnan(dev), math.inf, dev)).max(initial=0.0))

    return largest(relative), largest(absolute)


def compare(tree_a: Path, tree_b: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) of every data file in either tree."""
    files = {
        path.relative_to(tree).as_posix()
        for tree in (tree_a, tree_b)
        for path in tree.rglob("*")
        if path.is_file() and path.name not in SKIPPED and "_work" not in path.parts
    }
    verdicts = []
    for rel in sorted(files):
        a, b = tree_a / rel, tree_b / rel
        if not (a.is_file() and b.is_file()):
            verdicts.append((rel, "only in " + ("A" if a.is_file() else "B")))
        elif a.read_bytes() == b.read_bytes():
            verdicts.append((rel, "identical"))
        else:
            (shape_a, values_a), (shape_b, values_b) = _numbers(a), _numbers(b)
            if shape_a != shape_b or values_a.shape != values_b.shape:
                verdicts.append((rel, "differs in structure"))
            else:
                relative, absolute = _deviations(values_a, values_b)
                verdicts.append((rel, f"max relative deviation {relative:.3e}, "
                                      f"max absolute deviation {absolute:.3e}"))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT",
                    help="the two checkouts A and B to compare")
    ap.add_argument("--config", action="append", dest="names", metavar="NAME",
                    help="run only this sample config (repeatable); default: all of them")
    ap.add_argument("--workloads", action="store_true",
                    help="also run the jobs of the benchmark workloads at the seeds 1, 2 and 3")
    ap.add_argument("--run-into", type=Path, metavar="DIR",
                    help="run the jobs of the checkout in the working directory into DIR "
                         "(what the comparison starts for each side)")
    args = ap.parse_args(argv)
    if args.run_into is not None:
        return _run_checkout(args.run_into, args.names, args.workloads)
    if len(args.checkouts) != 2:
        ap.error("give two checkouts A and B")
    options = [arg for name in args.names or [] for arg in ("--config", name)]
    options += ["--workloads"] if args.workloads else []
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for side, checkout in zip("AB", args.checkouts):
            root = checkout.resolve()
            tree = Path(tmp) / side
            env = {**os.environ, "PYTHONPATH": str(root / "src")}
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--run-into", str(tree), *options],
                cwd=root, env=env, timeout=1800,
            )
            if proc.returncode != 0:
                print(f"compare_artifacts: the jobs of {side} ({root}) failed", file=sys.stderr)
                return 2
            trees.append(tree)
        verdicts = compare(*trees)
    for rel, verdict in verdicts:
        print(f"{rel}: {verdict}")
    same = sum(verdict == "identical" for _, verdict in verdicts)
    print(f"{same} of {len(verdicts)} data files identical")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
