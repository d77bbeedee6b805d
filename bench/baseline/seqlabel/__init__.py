"""Fuse sequence detections into a landmark map and reproject corrected labels."""

__version__ = "0.1.0"
