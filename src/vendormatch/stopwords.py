"""Bundled English stopword list.

Used for two things: candidate n-grams may not start or end with a
stopword, and phrase-level similarity drops stopwords before aligning
tokens.
"""

DEFAULT_STOPWORDS = frozenset(
    """
    a an the
    and or but nor so yet both either neither
    of in on at to for with by from into onto over under between among
    through during before after above below up down off out near per
    is are was were be been being am
    do does did has have had
    can could will would shall should may might must
    it its this that these those
    i me my we us our you your he him his she her they them their
    as if then than not no
    also any all each such own same more most other some only very just
    about against
    """.split()
)
