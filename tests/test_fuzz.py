"""A fixed-seed mutation fuzz of the CLI's error contract.

Every command ends in exit 0, or in exit 2 whose last stderr line starts
with `error:`; no exception leaves `cli.main`. Each case mutates one input of
a tiny corpus once (a dataset leaf or container, the checkpoint's bytes, a
run-config value) and runs one command on it, mostly `eval` and `decode`,
whose runs take milliseconds.

A flipped payload bit that keeps every weight finite is a valid checkpoint,
so a flip may exit 0; a truncated or extended checkpoint never is. A run
config's counts (`train.epochs`, `scorer.layers`) have no upper bound, so a
huge positive integer there is a request for a huge run rather than a
malformed value, and the run-config cases leave those out.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from vastsum.checkpoint import load_params, save_params
from vastsum.cli import main

CONFIG = {
    "scorer": {
        "input_dim": 8, "model_dim": 16, "heads": 2, "layers": 1,
        "refine_blocks": 1, "kernel": 3, "ffn_mult": 2, "max_timesteps": 32,
    },
    "head": {"latent_dim": 4},
    "train": {"epochs": 1, "seed": 1},
}

HUGE = [10**400, 2**64]
REPLACEMENTS = [
    -10**400, -0.0, float("nan"), float("inf"), float("-inf"), True, False, None,
    "", "x", [], [[]], [1, [2]], {}, {"k": 1}, -1, 0, 0.5,
]
# mostly the inference commands, whose runs cost the least
COMMANDS = ["eval", "decode"] * 3 + ["stability-report", "train"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 2-video dataset, the run config and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz")
    data, config = root / "data.json", root / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert outcome(["gen-data", "--out", str(data), "--videos", "2", "--timesteps", "8",
                    "--feature-dim", "8", "--annotators", "2", "--segments", "2", "--seed", "3"]) == 0
    assert outcome(["train", "--data", str(data), "--out-dir", str(root / "run"),
                    "--config", str(config)]) == 0
    return {"root": root, "data": data, "config": config, "checkpoint": root / "run" / "checkpoint.json"}


def outcome(argv, case="") -> int:
    """The exit code of `argv`, held to the contract."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{case}: {type(exc).__name__} left main: {exc}")
    assert code in (0, 2), f"{case}: exit {code}"
    if code == 2:
        lines = err.getvalue().splitlines()
        assert lines and lines[-1].startswith("error:"), f"{case}: stderr {lines}"
    return code


def argv_for(command, corpus, data=None, checkpoint=None, config=None):
    data, root = data or corpus["data"], corpus["root"]
    if command == "train":
        return ["train", "--data", data, "--out-dir", root / "out-run",
                "--config", config or corpus["config"]]
    extra = ["--trials", "3"] if command == "stability-report" else []
    return [command, "--checkpoint", checkpoint or corpus["checkpoint"], "--data", data,
            *extra, "--out", root / "out"]


def nodes(doc, path=()):
    """Every (path, value) of a JSON document, its containers included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from nodes(value, path + (index,))


def mutations(doc, values, count, seed):
    """`count` copies of `doc`, each with one node replaced by one of `values`.
    A node is drawn by its key path with list indices blurred, so the few
    `n_frames` leaves are drawn as often as the many `features` ones."""
    groups = {}
    for path, _ in nodes(doc):
        groups.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    kinds = sorted(groups, key=repr)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        paths = groups[kinds[rng.integers(len(kinds))]]
        path = paths[rng.integers(len(paths))]
        value = values[rng.integers(len(values))]
        if not path:
            yield path, value, value
            continue
        mutated = copy.deepcopy(doc)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        yield path, value, mutated


def test_dataset_node_replacements(corpus):
    doc = json.loads(corpus["data"].read_text())
    path_out = corpus["root"] / "mutated.json"
    rng = np.random.default_rng(11)
    for path, value, mutated in mutations(doc, REPLACEMENTS + HUGE, 240, seed=1):
        path_out.write_text(json.dumps(mutated))
        command = COMMANDS[rng.integers(len(COMMANDS))]
        outcome(argv_for(command, corpus, data=path_out), f"{command}, dataset {list(path)} = {value!r}")


def checkpoint_argv(corpus, index, checkpoint):
    return argv_for(("eval", "decode")[index % 2], corpus, checkpoint=checkpoint)


def test_checkpoint_truncations_and_appends_exit_2(corpus):
    blob = corpus["checkpoint"].read_bytes()
    start = 8 + int.from_bytes(blob[:8], "little")
    rng = np.random.default_rng(2)
    cuts = {0, 1, 7, 8, 9, start - 1, start, start + 1, start + 8, len(blob) - 8, len(blob) - 1}
    cuts |= {int(c) for c in rng.integers(1, len(blob), 20)}
    tails = [b"\0", b"\0" * 8, b" ", b"{}", bytes(rng.integers(0, 256, 13, dtype=np.uint8))]
    bad = corpus["root"] / "bad.ckpt"
    cases = [(f"cut to {c} bytes", blob[:c]) for c in sorted(cuts)]
    cases += [(f"appended {t!r}", blob + t) for t in tails]
    for index, (case, content) in enumerate(cases):
        bad.write_bytes(content)
        assert outcome(checkpoint_argv(corpus, index, bad), case) == 2, case


def test_checkpoint_bit_flips(corpus):
    blob = corpus["checkpoint"].read_bytes()
    start = 8 + int.from_bytes(blob[:8], "little")
    rng = np.random.default_rng(3)
    # half the flips in the length prefix and header, half in the payload
    positions = np.concatenate([rng.integers(0, start, 80), rng.integers(start, len(blob), 80)])
    bad = corpus["root"] / "flipped.ckpt"
    for index, position in enumerate(positions.tolist()):
        bit = int(rng.integers(8))
        flipped = bytearray(blob)
        flipped[position] ^= 1 << bit
        bad.write_bytes(bytes(flipped))
        outcome(checkpoint_argv(corpus, index, bad), f"bit {bit} of byte {position} flipped")


def test_run_config_value_replacements(corpus):
    """A replaced value in a --config file (train) and in the checkpoint's
    own config (the inference commands)."""
    params, meta = load_params(corpus["checkpoint"])
    config_out, checkpoint_out = corpus["root"] / "config-mutated.json", corpus["root"] / "meta.ckpt"
    for index, (path, value, mutated) in enumerate(mutations(meta["config"], REPLACEMENTS, 80, seed=4)):
        case = f"config {list(path)} = {value!r}"
        if index % 2:
            config_out.write_text(json.dumps(mutated))
            outcome(argv_for("train", corpus, config=config_out), "train, " + case)
        else:
            save_params(params, checkpoint_out, {**meta, "config": mutated})
            outcome(checkpoint_argv(corpus, index // 2, checkpoint_out), case)
