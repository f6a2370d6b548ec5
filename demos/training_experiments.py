"""Projected SGD finds the landscape the closed forms predict.

Matched runs either hit zero risk or get stuck in a region where some
input's weights all share one sign; widening the network makes the good
outcome more likely.  Mismatched runs against an unconstrained target
improve steadily with more lines.
"""
import numpy as np

import porcupine as p


def main():
    print("== matched degree-one runs (d = 5) ==")
    config = p.TrainConfig(
        batch_size=100, epochs=120, learning_rate=0.01, momentum=0.9,
        decay_rate=0.95, decay_every_steps=390,
        early_stop_window=10, early_stop_threshold=1e-6, seed=11,
    )
    for k in (10, 25, 50):
        summary = p.experiment_matched_degree_one(5, k, trials=10, config=config,
                                                  n_train=1500)
        bad = [t for t in summary.trials if t.outcome == p.BAD_LOCAL]
        print("  k = %2d: fraction global %.2f; bad locals all violate the "
              "mixed-sign rule: %s"
              % (k, summary.fraction_global,
                 all(t.violated_lines >= 1 for t in bad) if bad else "n/a"))

    print("\n== a trapped scalar run lands exactly on the predicted value ==")
    line = p.build_line_set([[1.0]])
    neuron_map = p.NeuronLineMap(2, (0, 0))
    truth = p.weights_from_masses(line, neuron_map, [6.0, -4.0])
    X, y = p.generate_dataset(truth, 2000, seed=12)
    init = p.weights_from_masses(line, neuron_map, [3.5, 2.5])
    run_config = p.TrainConfig(batch_size=100, epochs=120, learning_rate=0.01,
                               momentum=0.9, decay_rate=0.95,
                               decay_every_steps=390, seed=13)
    result = p.sgd_train((X, y), init, run_config)
    print("  final weights %s, population risk %.4f (theory: 8)"
          % (np.round(result.final_matrix.ravel(), 3),
             p.scalar_risk(result.final_matrix.ravel(), [6.0, -4.0]).total))

    print("\n== mismatched: normalized test error vs width (d=8, 12 target neurons) ==")
    mis_config = p.TrainConfig(batch_size=100, epochs=60, learning_rate=1e-3, seed=14)
    summary = p.experiment_mismatched_random(
        d=8, k_star=12, k_list=[8, 16, 32], trials=4, config=mis_config,
        inits_per_trial=3, n_train=3000, n_test=3000,
    )
    for k, median in summary.per_k().items():
        print("  k = %2d: median normalized test error %.4f" % (k, median))


if __name__ == "__main__":
    main()
