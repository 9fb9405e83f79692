"""Tunneling splittings of one-dimensional symmetric double wells.

Three routes to the ground-state splitting deltaE1 = E1 - E0 of the shifted
operator -d2/dx2 + deltaV(x) (reduced units, energies in E_u):

* localization: the variational estimate 2 x0^2 / (I * <g|rho|g>) built from
  a piecewise localization function and the equilibrium density;
* exact: inverse iteration from that function on the Green's operator;
* wkb: a semiclassical baseline with turning points at the well ground level.

See the ``models`` module for the double-well families and ``experiments``
for the row evaluator, parameter sweeps and table generation; import them
as submodules (``from dwsplit import experiments, models``), since the
package itself exposes only ``__version__``.  The ``dwsplit`` console
script exposes all of it from the command line.
"""

__version__ = "0.1.0"
