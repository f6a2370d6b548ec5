"""The relu kernel and what it does to line-set Gram matrices.

The scalar kernel maps cosines to [2/pi, 1], is even and 1-Lipschitz, and
applied entrywise keeps Gram matrices positive semidefinite — the fact
that makes the mass quadratic in the population risk well behaved.
"""
import numpy as np

import porcupine as p


def main():
    print("== the scalar kernel on a few cosines ==")
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        print("  kernel(%+.1f) = %.6f" % (x, p.psi(x)))
    print("kernel(0) equals 2/pi = %.6f" % (2 / np.pi))

    print("\n== equiangular planar lines: spectra shrink as lines pack ==")
    print("   r   min eigenvalue of the kernel matrix")
    for r in (2, 4, 8, 16, 32, 64):
        lam = p.min_eigenvalue(p.psi(p.equiangular_2d(r).gram))
        print("  %3d  %.3e" % (r, lam))
    print("positive for every finite r, so mass optima stay unique")

    print("\n== random line sets stay positive semidefinite ==")
    rng = np.random.default_rng(0)
    worst = np.inf
    for trial in range(50):
        d = int(rng.integers(2, 16))
        r = int(rng.integers(2, 40))
        lines = p.random_line_set(d, r, (0, trial))
        worst = min(worst, p.min_eigenvalue(p.psi(lines.gram)))
    print("worst min eigenvalue over 50 random line sets: %.2e" % worst)

    print("\n== the standard axes give the constant-off-diagonal matrix ==")
    print(p.psi(p.axes_line_set(3).gram))


if __name__ == "__main__":
    main()
