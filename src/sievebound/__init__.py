"""Certified numerics for a prime-indicator minorant built from sieve weights.

The package has four layers:

  * interval arithmetic at the bottom: outward-rounded float
    enclosures and the soundness exception every certified
    computation raises (interval);
  * the Buchstab function: a rigorous table and piecewise bounds
    (buchstab);
  * exact geometry: rational halfspace trees for the exponent regions,
    exact integer Irwin-Hall volume fractions rounded outward once, and
    verified adaptive integration of the three loss integrals against
    the budget targets (regions, quadrature, losses);
  * an exact integer harness that re-derives every decomposition
    identity termwise on a dyadic window (sieve_harness).

The command line front end lives in sievebound.cli.  The package
namespace holds only __version__: import every other name from its
module, as in `from sievebound import losses`.
"""

__version__ = "0.1.0"
