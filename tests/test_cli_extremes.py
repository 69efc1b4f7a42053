"""Every numeric leaf of every sample config at five extreme values, run through cli.main.

A run may succeed (exit 0) or refuse its input (exit 2 or 3); it never escapes
with an exception, prints a traceback or a warning, writes NaN or Infinity into
JSON, or leaves a file behind when it fails.
"""

import copy
import json
import signal
import warnings

from qbath import cli

from conftest import CONFIG_DIR, load_sample_config

VALUES = (1e150, -1e150, 1e-150, 1e300, 2**62)
# the whole sweep, 650 runs: about 2 s on a 2-core Xeon
TIME_LIMIT_S = 10


def _subcommand(stem):
    """The longest subcommand name that prefixes the config's file name."""
    return next(sub for sub in sorted(cli._DISPATCH, key=len, reverse=True)
                if stem.startswith(sub + "-"))


def _leaves(doc, path=()):
    """Paths of the numeric leaves of doc; of a list longer than four, its first entry only."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(doc, list):
        for k, value in enumerate(doc[:1] if len(doc) > 4 else doc):
            yield from _leaves(value, (*path, k))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def _runs():
    """(subcommand, label, config document) of every sample config and of master-eq on a cat."""
    runs = [(_subcommand(path.stem), path.stem, load_sample_config(path.stem))
            for path in sorted(CONFIG_DIR.glob("*.json"))]
    # the sample configs run a cat only under purity; master-eq evaluates the cat's
    # characteristic function itself, in the generator residual
    cat = load_sample_config("master-eq-equilibrium")
    cat["oscillator"] = load_sample_config("purity-cat-vacuum")["oscillator"]
    return [*runs, ("master-eq", "master-eq-equilibrium with a cat", cat)]


def _non_finite(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def _timeout(signum, frame):
    raise TimeoutError(f"the extremes sweep ran past {TIME_LIMIT_S} s")


def test_extreme_leaves_exit_cleanly(tmp_path, capsys):
    problems, n_runs = [], 0
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        for subcommand, label, doc in _runs():
            for path in _leaves(doc):
                for value in VALUES:
                    edited = copy.deepcopy(doc)
                    parent = edited
                    for key in path[:-1]:
                        parent = parent[key]
                    parent[path[-1]] = value
                    n_runs += 1
                    config = tmp_path / f"config-{n_runs}.json"
                    config.write_text(json.dumps(edited))
                    out = tmp_path / f"out-{n_runs}"
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        rc = cli.main([subcommand, "--config", str(config), "--out", str(out)])
                    err = capsys.readouterr().err
                    where = f"{subcommand} {label} {'/'.join(map(str, path))} = {value!r}"
                    if rc not in (0, 2, 3):
                        problems.append(f"{where}: exit {rc}")
                    if caught:
                        problems.append(f"{where}: warnings {[str(w.message) for w in caught]}")
                    if "Traceback" in err or len(err.splitlines()) != (rc != 0):
                        problems.append(f"{where}: stderr {err!r}")
                    if rc != 0 and out.exists():
                        problems.append(f"{where}: exit {rc} left {sorted(out.iterdir())}")
                    for artifact in out.glob("*.json"):
                        try:
                            json.loads(artifact.read_text(), parse_constant=_non_finite)
                        except ValueError as exc:
                            problems.append(f"{where}: {artifact.name}: {exc}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert n_runs > 500
    assert not problems, "\n".join(problems)
