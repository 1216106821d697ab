"""The correctness gate can fail: a corrupted verdict or response body fails
the run instead of becoming a number."""

import io
import json

import pytest

import gate
import run


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_corrupted_verdict_fails_the_run(monkeypatch, capsys):
    import repro.core.search as search

    original = search.theorem13_scan

    def corrupted(*args, **kwargs):
        rows = original(*args, **kwargs)
        row = rows[0]
        return [row._replace(equivalence_found=not row.equivalence_found)] + rows[1:]

    monkeypatch.setattr(search, "theorem13_scan", corrupted)
    code = run.main(["--workload", "scan_e1", "--seconds", "0.1", "--smoke"])
    out = capsys.readouterr().out
    assert code == 1
    assert last_json(out)["correct"] is False
    assert "CHECK FAILED" in out


def test_corrupted_response_body_fails_the_run(monkeypatch, capsys):
    import http.client

    original = http.client.HTTPResponse.read
    done = []

    def corrupted(self, *args, **kwargs):
        body = original(self, *args, **kwargs)
        if not done and b'"equivalent":true' in body:
            done.append(True)
            return body.replace(b'"equivalent":true', b'"equivalent":false')
        return body

    monkeypatch.setattr(http.client.HTTPResponse, "read", corrupted)
    code = run.main(["--workload", "serve_mixed", "--seconds", "0.1", "--smoke"])
    out = capsys.readouterr().out
    assert done, "no isomorphic equivalence question in the smoke schedule"
    assert code == 1
    assert last_json(out)["correct"] is False


def test_undecided_cells_claim_nothing():
    from repro.workloads import enumerate_keyed_schemas

    schemas = list(enumerate_keyed_schemas(["T"], max_relations=1, max_arity=2))
    rows = [(0, 1, False, True, "timeout"), (0, 0, True, True, "ok")]
    assert gate.scan_errors(rows, schemas) == []
    assert gate.scan_errors([(0, 1, False, True, "ok")], schemas)


@pytest.mark.parametrize(
    "second, failing",
    [(b'{"equivalent":true,"verdict":"ok"}\n', False),
     (b'{"equivalent":true,"verdict":"ok"} \n', True)],
)
def test_repeated_answers_must_be_byte_identical(second, failing):
    questions = [{"kind": "equivalence", "expected": True}]
    body = b'{"equivalent":true,"verdict":"ok"}\n'
    records = [{"question": 0, "status": 200, "body": body},
               {"question": 0, "status": 200, "body": second}]
    assert bool(gate.serve_errors(records, questions)) is failing


def test_emit_reports_failure():
    out = io.StringIO()
    code = run.emit({"wall_ref": 1.0}, {"wall_ref": "ref"}, 3, 0, ["wrong"], out=out)
    assert code == 1
    assert last_json(out.getvalue())["correct"] is False
