"""Write seeded synthetic IDX files the size of MNIST.

    python3 make_idx.py OUT_DIR SEED [N_TRAIN N_TEST]

Writes train-images-idx3-ubyte, train-labels-idx1-ubyte,
t10k-images-idx3-ubyte and t10k-labels-idx1-ubyte (28x28 uint8 images,
labels 0-9 drawn uniformly).  Each digit has a prototype: a sparse random
set of "ink" pixels.  An image keeps each ink pixel of its digit's
prototype with probability 0.7 at a random intensity in [128, 255], and
adds stray ink on 2% of the other pixels, so the digit 9 is learnable but
no two images are alike.  The format is written here with ``struct``, not
with the package's writer.  It runs as its own process so that its memory
does not count toward the benchmark's peak RSS.
"""

import os
import struct
import sys

import numpy as np

SIDE = 28
CHUNK = 5000


def write_pair(out_dir, prefix, n, rng, prototypes):
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    with open(os.path.join(out_dir, f"{prefix}-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, SIDE, SIDE))
        for start in range(0, n, CHUNK):
            lab = labels[start:start + CHUNK]
            m = lab.size
            ink = prototypes[lab] & (rng.random((m, SIDE * SIDE), dtype=np.float32) < 0.7)
            ink |= rng.random((m, SIDE * SIDE), dtype=np.float32) < 0.02
            level = rng.integers(128, 256, size=(m, SIDE * SIDE), dtype=np.uint8)
            f.write(np.where(ink, level, 0).astype(np.uint8).tobytes())
    with open(os.path.join(out_dir, f"{prefix}-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">II", 0x801, n))
        f.write(labels.tobytes())


def main(argv):
    out_dir, seed = argv[0], int(argv[1])
    n_train = int(argv[2]) if len(argv) > 2 else 60000
    n_test = int(argv[3]) if len(argv) > 3 else 10000
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D8]))
    prototypes = rng.random((10, SIDE * SIDE)) < 0.15
    write_pair(out_dir, "train", n_train, rng, prototypes)
    write_pair(out_dir, "t10k", n_test, rng, prototypes)


if __name__ == "__main__":
    main(sys.argv[1:])
