"""Reports that no golden file covers, pinned by sha256, and their kernel calls.

Each pin is written once, here. ``test_pinned_reports.py`` checks them, and
the CI workflow's steps read them from this module too.
"""

#: The JSON report's sha256 and the marking's row count after one run, with
#: marking updates on, over ``benchmark/workloads.py``'s corpus at seed 1.
SYNTH_PINS = {
    "rank_dense": ("2ea26fc3f0c671c97d79b21df68d7b61a73626904753ef9f6e4160dc207a486e", 33),
    "extract_growth": ("d944f513abbc7ee41e3067255d1e5a7efe87c71df0715ea6320a30ad71c9929c", 394),
}

#: The relatedness kernel's calls in that same run, counted by wrapping
#: ``vendormatch.extraction.relatedness_terms``. Equal bytes can hide more
#: work; a change to these counts shows it.
SYNTH_KERNEL_CALLS = {"rank_dense": 0, "extract_growth": 977}

#: The vectors that compute their ``math.fsum`` stddev in that same run, and
#: in the bundled corpus's run at the default thresholds with marking
#: updates on, counted over the vectors ``vendormatch.extraction.encode``
#: makes. Only a pair the kernel scores in full reads one.
STDDEV_VECTORS = {"bundled": 4, "rank_dense": 0, "extract_growth": 393}

#: The bundled corpus's JSON report at ``--r-threshold 0.3
#: --fallback-threshold 0.5`` without a marking update. At this bound the
#: gazetteer index's length cut keeps longer rows, which the default
#: thresholds never do.
LOOSE_BUNDLED_SHA256 = "1cf71b21d8966c45959372092325afdb90c57f3d761bc10368e43b8e292dd7fb"

#: The bundled corpus's JSON report at ``--fallback-threshold 0.05`` without a
#: marking update. The lookup bound is then five times the default's, and so
#: is the code-sum window of the candidate's own length.
FALLBACK_BUNDLED_SHA256 = "1d232fb549cc880b3e1e1c26b37d40cc2434f3f372807f1828a9dcfa9696d2d6"

#: The bundled corpus's JSON report at ``--wup-threshold 0.6`` and ``1.0``
#: without a marking update. Ranking then scores the phrase pairs whose token
#: pairs reach 0.2 and 1.0, not the default's 0.8, and at 1.0 only pairs at
#: exactly the threshold are kept.
WUP_0_6_BUNDLED_SHA256 = "80102f481e8afdd944d654ef28b08d247128fb17cbe5784e66d3c4dcd8f4ce1a"
WUP_1_0_BUNDLED_SHA256 = "fd05315471ecda82633e9ad609ab70acc55c83b490479c95ec0d07b0eecbfcdd"
