"""The library version, in a leaf module every layer may import."""

__version__ = "0.10.0"
