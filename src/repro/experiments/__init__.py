"""Experiment drivers regenerating every table and figure of Section VI.

Each module produces the same rows/series the paper reports:

* :mod:`repro.experiments.table2_3_4` — per-algorithm accuracy/energy
  tables on training and test segments (Tables II, III, IV).
* :mod:`repro.experiments.table5` — the 12x12 train-vs-test GFK
  similarity matrix (Table V).
* :mod:`repro.experiments.fig3` — adaptive vs fixed algorithm choice
  (Fig. 3).
* :mod:`repro.experiments.fig4` — accuracy/energy trade-off of camera
  and algorithm combinations (Fig. 4).
* :mod:`repro.experiments.fig5` — EECS vs all-best under high/low
  budgets on dataset #1 (Figs. 5a/5b).
* :mod:`repro.experiments.fig6` — the same on dataset #2 (Fig. 6).

The deployment drivers build their engines with
``DeploymentSpec(dataset_number=n).build_engine()``, which trains each
dataset once per process (:func:`~repro.engine.context.shared_context`)
and hands out a fresh engine per call.
"""

from repro.experiments.tables import format_table

__all__ = ["format_table"]
