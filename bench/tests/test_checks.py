import pytest

import rep
from bloomemb import SparseInstance, build_hash_matrix
from tracing import Tracer


def test_cbe_selecting_no_pairs_fails_loudly():
    # each pair co-occurs once, which does not exceed the average item
    # frequency of 1, so the threshold keeps nothing
    instances = [SparseInstance.from_items(6, pair) for pair in ([1, 2], [3, 4], [5, 6])]
    tracer = Tracer()
    with pytest.raises(rep.CheckFailed, match="0 pairs"):
        rep.cbe_rebuild(build_hash_matrix(6, 4, 2, 1), instances, 3, tracer)
    assert [s.attrs["pairs"] for s in tracer.spans] == [3, 0]
