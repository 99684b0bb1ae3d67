"""Reports that no golden file covers, pinned by sha256, and their kernel calls.

Each pin is written once, here. ``test_pinned_reports.py`` checks them, in
process and under fixed string-hash seeds; the CI workflow's benchmark smoke
step reads ``SYNTH_PINS`` from this module too.
"""

#: The bundled corpus's runs away from the default thresholds, each from a
#: copy of ``data/marking.tsv`` with marking updates on: ``{name: (CLI
#: flags, the JSON report's sha256, the grown marking's sha256 or None)}``.
#: The grown marking holds every admitted phrase and its frequency, which
#: the report covers only through ranking.
#:
#: - ``loose``: at this bound the gazetteer index's length cut keeps longer
#:   rows, which the default thresholds never do.
#: - ``fallback``: the lookup bound is five times the default's, and so is
#:   the code-sum window of the candidate's own length.
#: - ``r0.2``: many rows score mostly through their stddev gap, which no
#:   index check reads, so the index leaves the most rows to the kernel.
#: - ``wup0.6`` and ``wup1.0``: ranking scores the phrase pairs whose token
#:   pairs reach 0.2 and 1.0, not the default's 0.8, and at 1.0 keeps only
#:   pairs at exactly the threshold.
BUNDLED_PINS = {
    "loose": (
        ("--r-threshold", "0.3", "--fallback-threshold", "0.5"),
        "1cf71b21d8966c45959372092325afdb90c57f3d761bc10368e43b8e292dd7fb",
        "bf218f0f2cffe5c8283ca05baeae54af48351e0385fc85ea2b140306f2050bdd",
    ),
    "fallback": (
        ("--fallback-threshold", "0.05"),
        "1d232fb549cc880b3e1e1c26b37d40cc2434f3f372807f1828a9dcfa9696d2d6",
        "333c87fe7e1ab57a92e3126440ea8bfea5593a0c5779fbc223fd530fb6f07e5b",
    ),
    "r0.2": (
        ("--r-threshold", "0.2"),
        "a5648780c63dcfa0c17c1950fab5781383534b5138e8882ce779c5d56cc6a5ad",
        "d7ec71526c8375b47ba35b81cca68e6845c139c02baf7052ed0b8a6aac419f5f",
    ),
    "wup0.6": (
        ("--wup-threshold", "0.6"),
        "80102f481e8afdd944d654ef28b08d247128fb17cbe5784e66d3c4dcd8f4ce1a",
        None,
    ),
    "wup1.0": (
        ("--wup-threshold", "1.0"),
        "fd05315471ecda82633e9ad609ab70acc55c83b490479c95ec0d07b0eecbfcdd",
        None,
    ),
}

#: The JSON report's sha256 and the marking's row count after one run, with
#: marking updates on, over ``benchmark/workloads.py``'s corpus at seed 1.
SYNTH_PINS = {
    "rank_dense": ("2ea26fc3f0c671c97d79b21df68d7b61a73626904753ef9f6e4160dc207a486e", 33),
    "extract_growth": ("d944f513abbc7ee41e3067255d1e5a7efe87c71df0715ea6320a30ad71c9929c", 394),
}

#: The relatedness kernel's calls in that same run, counted by wrapping
#: ``vendormatch.extraction.relatedness_terms``. Equal bytes can hide more
#: work; a change to these counts shows it.
SYNTH_KERNEL_CALLS = {"rank_dense": 0, "extract_growth": 367}

#: The vectors that compute their ``math.fsum`` stddev in that same run, and
#: in the bundled corpus's run at the default thresholds with marking
#: updates on, counted over the vectors ``vendormatch.extraction.encode``
#: makes. Only a pair the kernel scores in full reads one.
STDDEV_VECTORS = {"bundled": 4, "rank_dense": 0, "extract_growth": 393}
