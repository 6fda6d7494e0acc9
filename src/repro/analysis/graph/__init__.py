"""Graph verification for :mod:`repro.nn` models.

Runs a module's real entry method on concrete probe inputs — each free
named dim bound to a distinct small prime — checking the per-module
``@contract`` shape declarations at every module boundary, and auditing
gradient flow (dead weights, ``detach()``/``no_grad``-severed paths) by
walking the autodiff graph back from the outputs.

Only the contract *language* (:mod:`~repro.analysis.graph.spec`) is imported
eagerly: model modules decorate themselves with :func:`contract`, so this
package must stay import-light to avoid a cycle with ``repro.nn``.  The
verifier loads on the first :func:`verify` call.
"""

from .spec import ANY, Contract, DimEnv, Spec, contract

__all__ = ["ANY", "Contract", "DimEnv", "Spec", "contract", "verify"]


def verify(module, raise_on_error=False):
    """Verify a module against its ``@contract``; see
    :func:`repro.analysis.graph.verifier.verify` (lazy import keeps the
    decorator path light)."""
    from .verifier import verify as _verify

    return _verify(module, raise_on_error=raise_on_error)
