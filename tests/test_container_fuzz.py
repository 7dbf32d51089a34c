"""Corruption fuzzing of the two container formats.

Every truncation, single-bit flip and same-length header edit of a small
valid `.trajset` or `.ckpt` must either load or raise DataError, never
any other exception. A checkpoint counts as loaded once `restore_model`
and `restore_optimizer` accept it.

Same-length edits keep every number within its digit count, so no edit
can ask for a model too large to allocate.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from trajvrnn.checkpoint import (load_checkpoint, restore_model,
                                 restore_optimizer, save_checkpoint)
from trajvrnn.data import (MaskingSpec, build_dataset, generate_sequences,
                           read_dataset, write_dataset)
from trajvrnn.errors import DataError
from trajvrnn.model import ModelConfig, TrajectoryModel
from trajvrnn.optim import Adam

# Without a database hypothesis still caches the constants it finds in the
# source, by default in ./.hypothesis; keep that cache out of the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "trajvrnn-hypothesis"))
FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)
HEADER_CHARS = [chr(c) for c in range(32, 127)] + ["\n"]


def load_ckpt(path):
    ck = load_checkpoint(path)
    restore_optimizer(ck, restore_model(ck))


LOADERS = {"trajset": read_dataset, "ckpt": load_ckpt}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    ds = build_dataset(generate_sequences(2, 3, 4, 2, seed=3),
                       MaskingSpec(mode="camera", angle=20.0), split="test", seed=3)
    ds.results = [(seq.past + 0.5, seq.coords[seq.t_past:] - 0.5) for seq in ds.sequences]
    write_dataset(work / "valid.trajset", ds)
    model = TrajectoryModel(ModelConfig(n_agents_max=3, d_embed=2, d_graph=2, d_hidden=10,
                                        d_latent=2, ec_hidden=2, ec_pool=2, t_past=4,
                                        t_future=2, seed=17))
    save_checkpoint(work / "valid.ckpt", model, Adam(model.parameters()), epoch=12)
    blobs = {}
    for kind, load in LOADERS.items():
        path = work / f"valid.{kind}"
        load(path)
        blobs[kind] = path.read_bytes()
    return work / "mutated", blobs


def truncations(blob):
    return st.integers(0, len(blob) - 1).map(lambda n: blob[:n])


def bit_flips(blob):
    def flip(at_bit):
        out = bytearray(blob)
        out[at_bit[0]] ^= 1 << at_bit[1]
        return bytes(out)
    return st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)).map(flip)


def header_edits(blob):
    header_end = blob.index(b"\n", blob.index(b"\npayload_bytes=") + 1) + 1

    def edit(changes):
        out = bytearray(blob)
        for at, char in changes:
            out[at] = ord(char)
        return bytes(out)
    return st.lists(st.tuples(st.integers(0, header_end - 1), st.sampled_from(HEADER_CHARS)),
                    min_size=1, max_size=3).map(edit)


@pytest.mark.parametrize("mutation", [truncations, bit_flips, header_edits])
@pytest.mark.parametrize("kind", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_corrupt_file_loads_or_raises_data_error(valid_files, kind, mutation, data):
    path, blobs = valid_files
    path.write_bytes(data.draw(mutation(blobs[kind])))
    try:
        LOADERS[kind](path)
    except DataError:
        pass
