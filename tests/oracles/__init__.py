"""Reference implementations that exist only to prove parity.

Production code has one path per analysis: the columnar reductions for
§4 and the CSR engine for §4.5.  The implementations they replaced live
here, unchanged in behaviour, as the references for the parity tests:

* :mod:`tests.oracles.analyses` — the record-dict §4 analyses;
* :mod:`tests.oracles.graph` — the networkx §4.5 analyses plus a
  :func:`~tests.oracles.graph.to_networkx` converter for CSR graphs;
* :mod:`tests.oracles.serve` — the record-dict serve toxicity summaries
  and the dict-built thread payload;
* :mod:`tests.oracles.perspective` — per-text Perspective scoring, the
  reference for the batch featurizer;
* :mod:`tests.oracles.langid` — dict-per-language language
  identification with a left-to-right log-likelihood sum;
* :mod:`tests.oracles.parse_memo` — a discussion-page parse memo that
  never hits, the reference for the crawl-wide memo;
* :mod:`tests.oracles.headers` — the list-scan header map, the
  reference for ``Headers``' lower-cased name index;
* :mod:`tests.oracles.codecs` — store line encoders built on
  ``JSONEncoder.encode`` of a dict, the reference for the field-by-field
  line encoders;
* :mod:`tests.oracles.page_patterns` — the discussion-page and
  home-page regexes searched over the whole page, and the home-page
  parser on them, the reference for the literal-prefix seek;
* :mod:`tests.oracles.urls` — ``tld_of``/``second_level_domain`` and the
  projector's URL metadata with one ``urlsplit`` per question, the
  reference for the shared ``split_domains``;
* :mod:`tests.oracles.powerlaw` — the §4.5 power-law MLE, KS distance,
  ``pmf`` and ``cdf`` on ``scipy.special.zeta`` and
  ``scipy.optimize.minimize_scalar``, the reference for the ported
  Hurwitz zeta and bounded Brent.

``pmf`` and ``cdf`` there take the fit as their first argument.

Every function takes the same arguments as the production function it
mirrors, so a test can swap one for the other by name.
"""
