"""freedecay: rapid-decay certificates and free-product state machinery
for finite-dimensional and discretized C*-probability spaces.  Import each
name from its module; the package itself loads no module."""

__version__ = "0.1.0"
