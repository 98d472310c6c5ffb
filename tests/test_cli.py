"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(args, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args, stdout=out)
    return code, out.getvalue()


UPDATE = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
INSERT DATA { ex:team4 foaf:name "DB" ; ont:teamCode "DBTG" . }
"""

BAD_UPDATE = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex:   <http://example.org/db/>
INSERT DATA { ex:author1 foaf:firstName "NoLastname" . }
"""


class TestDemo:
    def test_demo_prints_table1_and_sql(self):
        code, output = run_cli(["demo"])
        assert code == 0
        assert "publication -> foaf:Document" in output
        assert "INSERT INTO publication_author" in output


class TestUpdate:
    def test_update_from_stdin(self, monkeypatch):
        code, output = run_cli(["update"], stdin_text=UPDATE, monkeypatch=monkeypatch)
        assert code == 0
        assert "INSERT INTO team (id, name, code) VALUES (4, 'DB', 'DBTG');" in output
        assert "1 statement(s) executed" in output

    def test_update_from_file(self, tmp_path):
        request = tmp_path / "op.ru"
        request.write_text(UPDATE)
        code, output = run_cli(["update", str(request)])
        assert code == 0
        assert "INSERT INTO team" in output

    def test_dry_run_translates_only(self, monkeypatch):
        code, output = run_cli(
            ["update", "--dry-run"], stdin_text=UPDATE, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "INSERT INTO team" in output
        assert "executed" not in output

    def test_invalid_update_prints_feedback_and_fails(self, monkeypatch):
        code, output = run_cli(
            ["update"], stdin_text=BAD_UPDATE, monkeypatch=monkeypatch
        )
        assert code == 1
        assert "missing-required-property" in output

    def test_custom_schema(self, tmp_path, monkeypatch):
        schema = tmp_path / "schema.sql"
        schema.write_text(
            "CREATE TABLE widget (id INTEGER PRIMARY KEY, label VARCHAR(50));"
        )
        op = (
            "PREFIX v: <http://example.org/vocab#>\n"
            "PREFIX d: <http://example.org/db/>\n"
            'INSERT DATA { d:widget1 v:widget_label "Thing" . }'
        )
        code, output = run_cli(
            ["update", "--schema", str(schema)],
            stdin_text=op,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "INSERT INTO widget" in output


class TestQuery:
    def test_select(self, tmp_path, monkeypatch):
        data = tmp_path / "data.sql"
        data.write_text(
            "INSERT INTO team (id, name, code) VALUES (1, 'SE', 'SEAL');"
        )
        query = (
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            "SELECT ?n WHERE { ?t foaf:name ?n . }"
        )
        code, output = run_cli(
            ["query", "--data", str(data)], stdin_text=query, monkeypatch=monkeypatch
        )
        assert code == 0
        assert '"SE"' in output

    def test_ask(self, monkeypatch):
        code, output = run_cli(
            ["query"],
            stdin_text='PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:name "X" . }',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert output.strip() == "false"


class TestDumpAndMapping:
    def test_dump_empty_database(self):
        code, output = run_cli(["dump"])
        assert code == 0

    def test_dump_with_data(self, tmp_path):
        data = tmp_path / "data.sql"
        data.write_text("INSERT INTO team (id, name) VALUES (1, 'SE');")
        code, output = run_cli(["dump", "--data", str(data)])
        assert code == 0
        assert "foaf:Group" in output

    def test_mapping_generation_default_schema(self):
        code, output = run_cli(["mapping"])
        assert code == 0
        assert "r3m:DatabaseMap" in output
        assert "foaf:Person" in output

    def test_mapping_generation_custom_schema(self, tmp_path):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE thing (id INTEGER PRIMARY KEY);")
        code, output = run_cli(["mapping", "--schema", str(schema)])
        assert code == 0
        assert 'r3m:hasTableName "thing"' in output

    def test_mapping_validate_ok(self, tmp_path):
        # generate, save, validate against the same schema
        code, generated = run_cli(["mapping"])
        mapping_file = tmp_path / "mapping.ttl"
        mapping_file.write_text(generated)
        code, output = run_cli(["mapping", "--validate", str(mapping_file)])
        assert code == 0
        assert "consistent" in output

    def test_mapping_validate_detects_problems(self, tmp_path):
        code, generated = run_cli(["mapping"])
        mapping_file = tmp_path / "mapping.ttl"
        mapping_file.write_text(generated)
        schema = tmp_path / "other.sql"
        schema.write_text("CREATE TABLE unrelated (id INTEGER PRIMARY KEY);")
        code, output = run_cli(
            ["mapping", "--validate", str(mapping_file), "--schema", str(schema)]
        )
        assert code == 1
        assert "PROBLEM" in output


class TestErrors:
    def test_broken_sql_schema_reports_error(self, tmp_path, monkeypatch, capsys):
        schema = tmp_path / "bad.sql"
        schema.write_text("CREATE GARBAGE")
        code = main(["dump", "--schema", str(schema)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-body-bytes", "1024"),
            ("--retry-after", "2"),
            ("--bootstrap-timeout", "5"),
        ],
    )
    def test_serve_flags_with_one_value_in_use_are_gone(self, flag, value, capsys):
        """ISSUE 16: these were settable but nothing ever set them; each
        is a constant now, and argparse refuses the flag (exit 2) before
        any server starts."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestDurability:
    """--data-dir persistence and the checkpoint subcommand (ISSUE 5)."""

    QUERY = (
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
        "SELECT ?n WHERE { ?x foaf:name ?n . }\n"
    )

    def test_update_survives_into_new_process_style_invocation(self, tmp_path):
        data_dir = str(tmp_path / "dd")
        request = tmp_path / "op.ru"
        request.write_text(UPDATE)
        code, _ = run_cli(["update", "--data-dir", data_dir, str(request)])
        assert code == 0
        query = tmp_path / "q.rq"
        query.write_text(self.QUERY)
        # fresh invocation: the database is recovered from data_dir, and
        # the schema script default must NOT re-apply over it
        code, output = run_cli(["query", "--data-dir", data_dir, str(query)])
        assert code == 0
        assert '"DB"' in output

    def test_state_accumulates_across_invocations(self, tmp_path):
        data_dir = str(tmp_path / "dd")
        first = tmp_path / "op1.ru"
        first.write_text(UPDATE)
        assert run_cli(["update", "--data-dir", data_dir, str(first)])[0] == 0
        second = tmp_path / "op2.ru"
        second.write_text(UPDATE.replace("team4", "team7").replace("DBTG", "WEB"))
        # a second invocation recovers the surviving database (schema
        # scripts must not re-apply) and adds to it
        assert run_cli(["update", "--data-dir", data_dir, str(second)])[0] == 0
        query = tmp_path / "q.rq"
        query.write_text(self.QUERY)
        code, output = run_cli(["query", "--data-dir", data_dir, str(query)])
        assert code == 0
        assert output.count('"DB"') == 2  # both teams named "DB"

    def test_checkpoint_subcommand(self, tmp_path):
        data_dir = str(tmp_path / "dd")
        request = tmp_path / "op.ru"
        request.write_text(UPDATE)
        run_cli(["update", "--data-dir", data_dir, str(request)])
        code, output = run_cli(["checkpoint", "--data-dir", data_dir])
        assert code == 0
        assert "checkpoint written" in output
        assert "team(1)" in output
        query = tmp_path / "q.rq"
        query.write_text(self.QUERY)
        code, output = run_cli(["query", "--data-dir", data_dir, str(query)])
        assert code == 0
        assert '"DB"' in output

    def test_sync_mode_none_flushes_on_close(self, tmp_path):
        data_dir = str(tmp_path / "dd")
        request = tmp_path / "op.ru"
        request.write_text(UPDATE)
        code, _ = run_cli(
            ["update", "--data-dir", data_dir, "--sync-mode", "none", str(request)]
        )
        assert code == 0
        query = tmp_path / "q.rq"
        query.write_text(self.QUERY)
        code, output = run_cli(["query", "--data-dir", data_dir, str(query)])
        assert code == 0
        assert '"DB"' in output
