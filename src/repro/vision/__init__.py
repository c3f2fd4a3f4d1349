"""Vision feature substrate.

From-scratch numpy implementations of the feature pipeline the paper
builds with OpenCV (Section V-A): histogram-of-oriented-gradients
frame descriptors (3780-dim, the standard 64x128 person window
layout), a Hessian-based keypoint detector with SURF-style 64-dim
descriptors, Lloyd k-means for the 400-word visual vocabulary, and the
bag-of-words frame histogram.  A combined frame feature is the paper's
4180-dimensional vector (HOG ++ BoW).
"""

from repro.vision.bow import BagOfWords
from repro.vision.features import FrameFeatureExtractor, video_features
from repro.vision.hog import hog_descriptor
from repro.vision.image import resize_bilinear
from repro.vision.keypoints import Keypoint, detect_keypoints
from repro.vision.kmeans import KMeans

__all__ = [
    "BagOfWords",
    "FrameFeatureExtractor",
    "video_features",
    "hog_descriptor",
    "resize_bilinear",
    "Keypoint",
    "detect_keypoints",
    "KMeans",
]
