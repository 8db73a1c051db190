"""Shot-level movie analysis toolkit.

Two learnable pieces built on one small autodiff engine: a tag predictor
supervised by video-level genres and keywords, and a self-supervised
sequence model that picks the true next shot out of a candidate pool.
A synthetic corpus generator with known shot-level ground truth makes
every pipeline stage verifiable without a real movie collection.
"""

__version__ = "0.1.0"
