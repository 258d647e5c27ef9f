"""Behavioral NIC models (Intel X710 / i40e).

The package imports none of its modules: ``Instantiation.build`` loads
:mod:`~repro.nicsim.i40e` only for a detailed host behind an i40e NIC.
"""
