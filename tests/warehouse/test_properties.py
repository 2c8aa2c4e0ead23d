"""Property tests: on arbitrary record piles, a warehouse replaying the
store in place + streaming aggregation reproduce
ResultStore.latest()/aggregate() exactly."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.runner.store import ResultStore, aggregate, render_report  # noqa: E402
from repro.warehouse import Warehouse, aggregate_stream  # noqa: E402

SCHEMES = ("antisat", "sarlock", "xor", "tt-lock")
METRICS = ("gnn_accuracy", "post_accuracy", "removal_success_rate", "train_time_s")


@st.composite
def records(draw):
    record = {
        "task_id": draw(st.sampled_from(["t/a", "t/b", "t/c"])),
        "scheme": draw(st.sampled_from(SCHEMES)),
        "suite": draw(st.sampled_from(["ISCAS-85", "ITC-99"])),
        "technology": "BENCH8",
        "status": draw(st.sampled_from(["ok", "ok", "ok", "failed"])),
        "n_instances": draw(st.integers(min_value=1, max_value=5)),
    }
    if draw(st.booleans()):
        # Small fingerprint pool so piles contain genuine supersessions.
        record["fingerprint"] = f"fp{draw(st.integers(min_value=0, max_value=7))}"
    for metric in METRICS:
        if draw(st.booleans()):
            record[metric] = draw(
                st.floats(
                    min_value=0.0,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
    return record


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(pile=st.lists(records(), min_size=0, max_size=30))
def test_warehouse_reproduces_store_byte_for_byte(tmp_path, pile):
    store_path = tmp_path / "job.jsonl"
    store_path.unlink(missing_ok=True)
    store = ResultStore(store_path)
    for record in pile:
        store.append(record)

    root = tmp_path / "wh"
    if root.exists():
        import shutil

        shutil.rmtree(root)
    warehouse = Warehouse(root)
    warehouse.register(store.path)

    expected = list(store.latest().values())
    assert list(warehouse.iter_records()) == expected
    # Byte-for-byte: the streamed aggregate and rendered report serialise
    # identically to their in-memory JSONL-backed counterparts.
    assert json.dumps(aggregate_stream(warehouse.iter_records()), sort_keys=True) == (
        json.dumps(aggregate(expected), sort_keys=True)
    )
    assert render_report(list(warehouse.iter_records())) == render_report(expected)
