"""Subword-aware neural language modeling toolkit.

Words are segmented into subwords (Liang hyphenation, characters, or an
external segmentation file), composed into word vectors by one of several
composition models, and fed to a word-level LSTM language model.  Training,
evaluation, hyperparameter search, and model-comparison analyses are driven
by the ``sublm`` command line tool.
"""

import os as _os
import sys as _sys

# Cap BLAS parallelism before numpy is first imported so that SUBLM_THREADS
# actually takes effect.  Fixed thread counts keep runs bitwise reproducible.
# SUBLM_THREADS is the BLAS threads of each call.  Apart from them, a backward
# walk runs the weight-gradient GEMMs on one helper thread (tensor.later);
# each is the same call as on the main thread, so the bits do not depend on
# it, and a forked child starts its own helper.
if "SUBLM_THREADS" in _os.environ and "numpy" not in _sys.modules:
    _n = _os.environ["SUBLM_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _n)

__version__ = "0.1.0"
