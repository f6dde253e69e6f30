"""Single source of truth for the package version.

Lives in its own module (rather than ``repro/__init__``) so provenance
code — :mod:`repro.obs.manifest` and the exporters, which stamp every
artifact with the version — can import it without triggering the full
package import, and so ``pyproject.toml`` has one place to mirror.
"""

__version__ = "1.13.0"
