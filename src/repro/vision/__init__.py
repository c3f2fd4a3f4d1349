"""Vision feature substrate.

From-scratch numpy implementations of the feature pipeline the paper
builds with OpenCV (Section V-A): histogram-of-oriented-gradients
frame descriptors (3780-dim, the standard 64x128 person window
layout), a Hessian-based keypoint detector with SURF-style 64-dim
descriptors, Lloyd k-means for the 400-word visual vocabulary, and the
bag-of-words frame histogram.  A combined frame feature is the paper's
4180-dimensional vector (HOG ++ BoW).

The package root re-exports nothing: import from the submodules.
``keypoints`` needs ``scipy.ndimage``; only the Section III frame
features reach it (Table V, Fig. 3 and :mod:`repro.core.adaptive`), so
a deployment, which reads colour features alone, loads no scipy.
"""
