"""Reference implementations that exist only to prove parity.

Production code has one path per analysis: the columnar reductions for
§4 and the CSR engine for §4.5.  The implementations they replaced live
here, unchanged in behaviour, as the references for the parity tests:

* :mod:`tests.oracles.analyses` — the record-dict §4 analyses;
* :mod:`tests.oracles.graph` — the networkx §4.5 analyses plus a
  :func:`~tests.oracles.graph.to_networkx` converter for CSR graphs;
* :mod:`tests.oracles.serve` — the record-dict serve toxicity summaries.

Every function takes the same arguments as the production function it
mirrors, so a test can swap one for the other by name.
"""
