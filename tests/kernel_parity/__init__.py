"""Differential-testing harness for :mod:`repro.embedding.kernels`.

Proves the fused vectorised kernels numerically correct from two
independent directions:

* ``test_gradcheck`` — finite-difference gradient checks of the fused
  kernel and of the scalar oracle (:mod:`.reference`) against the pure
  batch objective
  (:func:`repro.embedding.kernels.estep_batch_loss`), covering all three
  Eq. 18 loss terms across dtypes and batch sizes.
* ``test_fused_parity`` — hypothesis property tests asserting the fused
  and reference kernels produce the same per-update parameter deltas on
  random problems, for the E-Step, the SGNS step, and the triad
  pseudo-labels.
* ``test_trajectory`` — whole-``fit`` loss-trajectory and final-weight
  equivalence between the shipped fit and the same fit with the trainer
  module's kernel binding patched to the oracle, on a small registry
  preset.

Run standalone with::

    PYTHONPATH=src python -m pytest tests/kernel_parity -q

Set ``KERNEL_PARITY_REPORT=<path>`` to emit a JSON report of every
parity test outcome (CI uploads it when the job fails).
"""
