"""The single registry of source markers the pitree tooling honors.

Every in-source suppression or configuration marker — the `lint:<name>` and
`analyze:<name>` comments — must be declared here. Both checkers load this
table: tools/lint/pitree_lint.py flags any marker-shaped comment whose name
is *not* registered (rule `unknown-marker`, catching typos that would
otherwise silently suppress nothing), and tools/analyze/concurrency_analyzer.py
uses it to decide which findings a marker may suppress.

Grammar, shared by every marker:

    // <name>                       (reason_required=False)
    // <name> -- <reason>           (reason_required=True)
    // <name>=<value> -- <reason>   (value_required=True)

A marker suppresses a finding on the same line or the line directly above
it; the file-scope markers (`scope='file'`) cover the whole file from
anywhere in it. Reasons are mandatory wherever declared so every
suppression doubles as its own audit record.
"""

MARKERS = {
    # ---- tools/lint/pitree_lint.py ----------------------------------------
    'lint:latch-helper': dict(
        tool='lint', scope='file', reason_required=False, value_required=False,
        doc='This file funnels Latch acquisition through an audited helper '
            '(e.g. AcquireMode); satisfies the naked-latch rule.'),
    'lint:allow-naked-latch': dict(
        tool='lint', scope='file', reason_required=True, value_required=False,
        doc='This file calls Latch::Acquire* directly; the §4.1 acquisition '
            'order has been audited by hand.'),
    'lint:allow-mutex-io': dict(
        tool='lint', scope='site', reason_required=True, value_required=False,
        doc='This mutex deliberately spans storage I/O (slow-path '
            'serialization such as checkpoint/truncate); exempts the '
            'mutex-across-io rule for the guard declared here.'),
    'lint:tsa-escape': dict(
        tool='lint', scope='site', reason_required=True, value_required=False,
        doc='The function below carries NO_THREAD_SAFETY_ANALYSIS: its latch '
            'or mutex spans cross function boundaries in a way clang\'s '
            'intraprocedural analysis cannot follow. Every escape must '
            'carry this marker (rule tsa-escape-audit); coverage falls to '
            'the runtime checker and tools/analyze.'),
    # ---- tools/analyze/concurrency_analyzer.py ----------------------------
    'analyze:allow-rank-order': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=False,
        doc='Suppresses a rank-order finding: this acquire (or call) is '
            'provably consistent with the §11 order for a reason the '
            'analyzer cannot see.'),
    'analyze:allow-epoch-block': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=False,
        doc='Suppresses an epoch-block finding: this call inside an epoch '
            'section does not block / the guard is provably inactive here.'),
    'analyze:allow-latch-io': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=False,
        doc='Suppresses a latch-io finding: this Env I/O under a page latch '
            'is the design (e.g. reading a fetched page into its frame, '
            'flushing under S).'),
    'analyze:allow-unbalanced': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=False,
        doc='Suppresses an unbalanced finding: this return site\'s latch or '
            'epoch effect is intentional and audited.'),
    'analyze:allow-olc-deref': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=False,
        doc='Suppresses an olc-deref finding: this optimistic window is '
            'validated by the caller / the deref is the audited copy loop.'),
    'analyze:latch-rank': dict(
        tool='analyze', scope='site', reason_required=True,
        value_required=True,
        doc='Configuration, not suppression: the latch acquired on the '
            'marked line has the named §11 rank (e.g. '
            '`analyze:latch-rank=kSpaceMap`) instead of the default '
            'kTreePage.'),
}
