"""Peak traced memory of the large elementwise passes.

``coverage_gap`` and ``psi`` walk their inputs in cache-sized blocks, so
their temporaries do not grow with the number of probes or Gram entries;
``random_line_set`` keeps one copy of its lines while it forms the Gram.
``tracemalloc`` sees numpy's array buffers; each bound is well below what
one full-size temporary would add.
"""

import tracemalloc

import numpy as np

import porcupine as p

MIB = 1 << 20


def traced_peak(fn, *args):
    """The result of ``fn(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_coverage_gap_peak():
    # The benchmark's d=4 net (141 vectors); a 141 x 20 000 cosine matrix
    # alone is 21.5 MiB.
    net = p.greedy_angular_net(4, 0.4, seed=[500, 4, 0])
    gap, peak = traced_peak(p.coverage_gap, net, 20_000, 1)
    assert 0.0 < gap <= net.delta
    assert peak <= 8 * MIB


def test_psi_peak_is_its_output():
    gram = p.random_line_set(16, 1024, seed=0).gram
    out, peak = traced_peak(p.psi, gram)
    assert out.nbytes == 8 * MIB
    assert peak <= out.nbytes + 1 * MIB
    assert np.all(out >= 2.0 / np.pi - 1e-15)


def test_random_line_set_peak():
    # The drawn block and its oriented copy are freed before the Gram is
    # formed; with both still alive the peak is 22.7 MiB for 12 MiB of output.
    line_set, peak = traced_peak(p.random_line_set, 512, 1024, 0)
    assert line_set.num_lines == 1024
    assert peak <= line_set.unit_vectors.nbytes + line_set.gram.nbytes + 4 * MIB
