"""A call-by-push-value core language and its tower of abstract machines."""

__version__ = "0.1.0"
