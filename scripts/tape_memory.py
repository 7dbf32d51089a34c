"""Print the memory that one train step's autodiff tape holds, per op.

Runs one train step at the paper's reference setting (H=256, Z=64, B=64,
N=10, T=40+10, circle masks of radius 5) under tracemalloc. It walks the
tape behind the total loss, which backward leaves in place, and prints,
for each op, the node count and the MB held by the nodes' values (`.data`) and by
the arrays their backward functions keep: the arguments of a
`functools.partial` or the cells of a closure. Each buffer is counted
once, for the earliest-made node that holds it (a view, such as a slice,
adds nothing), so the total is what the tape keeps alive. Then it prints
the tracemalloc figures: what the forward pass left allocated, its peak,
and how far backward's peak rose above what the forward left.

    PYTHONPATH=src python scripts/tape_memory.py

The process peaks at about 0.6 GB; `--batch` and `--agents` shrink the
step.
"""

import argparse
import tracemalloc
from collections import defaultdict
from functools import partial

import numpy as np

from trajvrnn.autodiff import backward
from trajvrnn.data import MaskingSpec, build_dataset, generate_sequences, stack_arrays
from trajvrnn.model import ModelConfig, TrajectoryModel
from trajvrnn.training import fit_normalization

MB = 1e6


def held_arrays(node):
    """The numpy arrays that `node`'s backward function keeps, tuples and
    lists opened; tensors are skipped (a parent's value is its own)."""
    fn = node._backward
    if fn is None:
        return []
    if isinstance(fn, partial):
        items = list(fn.args)
    else:
        items = [cell.cell_contents for cell in fn.__closure__ or ()]
    arrays = []
    while items:
        item = items.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            items.extend(item)
    return arrays


def _owner(array):
    """The array that owns `array`'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def tape_bytes(root):
    """{op: [nodes, data bytes, backward bytes]} over the tape behind
    `root`, parameters included; each buffer counts once, for the
    earliest-made node that holds it."""
    seen, stack, nodes = {id(root)}, [root], [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
                nodes.append(parent)
    counted = set()
    table = defaultdict(lambda: [0, 0, 0])

    def add(row, col, array):
        owner = _owner(array)
        if id(owner) not in counted:
            counted.add(id(owner))
            row[col] += owner.nbytes

    for node in sorted(nodes, key=lambda n: n.seq):
        if not node.parents and node.op != "parameter":
            continue  # a constant: data, not tape
        row = table[node.op]
        row[0] += 1
        add(row, 1, node.data)
        for array in held_arrays(node):
            add(row, 2, array)
    return dict(table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--agents", type=int, default=10)
    args = parser.parse_args(argv)

    seqs = generate_sequences(args.batch, args.agents, 40, 10, seed=1)
    ds = build_dataset(seqs, MaskingSpec(mode="circle", radius=5.0), "train", 1)
    center, scale = fit_normalization(ds)
    model = TrajectoryModel(ModelConfig(d_hidden=256, d_latent=64, d_embed=16, d_graph=16,
                                        coord_center=center, coord_scale=scale, seed=1))
    coords, masks = stack_arrays(ds)
    noise = model.draw_noise(np.random.default_rng(2), args.batch, args.agents)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    total = model.training_losses(coords, masks, noise)["total"]
    after_forward, forward_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    backward(total)
    backward_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    table = tape_bytes(total)

    print(f"{'op':<14}{'nodes':>7}{'data MB':>10}{'backward MB':>13}{'total MB':>10}")
    rows = sorted(table.items(), key=lambda kv: -(kv[1][1] + kv[1][2]))
    for op, (count, data, kept) in rows:
        print(f"{op:<14}{count:>7}{data / MB:>10.1f}{kept / MB:>13.1f}"
              f"{(data + kept) / MB:>10.1f}")
    count, data, kept = (sum(row[i] for row in table.values()) for i in range(3))
    print(f"{'all':<14}{count:>7}{data / MB:>10.1f}{kept / MB:>13.1f}{(data + kept) / MB:>10.1f}")
    print(f"tracemalloc: forward left {(after_forward - base) / MB:.1f} MB, "
          f"forward peak {(forward_peak - base) / MB:.1f} MB, "
          f"backward peak {(backward_peak - after_forward) / MB:.1f} MB above that")


if __name__ == "__main__":
    main()
