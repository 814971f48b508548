"""Support code of the layered performance ledger (see ``../README.md``)."""
