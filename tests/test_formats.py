import json
import random

import pytest

from ledgernet import (
    Chain,
    ExportError,
    InteractionGraph,
    ParseError,
    UsageError,
    export_json,
    export_pajek,
    import_graph,
)
from ledgernet.formats import (export_graph, infer_format, parse_json, read_json,
                               write_json)

import oracles


def two_node_graph(chain=None):
    g = InteractionGraph(chain)
    g.intern_node("A")
    g.intern_node("B")
    g.record_edge(1, 2, amount=8)
    return g


def assert_same_graph(left, right):
    assert left.node_keys() == right.node_keys()
    assert left.edge_triples() == right.edge_triples()


class TestExportPajek:
    def test_golden_two_node_file(self, tmp_path):
        path = tmp_path / "g.pajek"
        export_pajek(two_node_graph(), path)
        assert path.read_bytes() == b'*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 8\n'

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "g.pajek"
        export_pajek(InteractionGraph(), path)
        assert path.read_bytes() == b"*Vertices 0\n*Edges\n"

    def test_path_graph_edge_block(self, tmp_path):
        g = InteractionGraph()
        for key in "ABC":
            g.intern_node(key)
        g.record_edge(1, 2, amount=4)
        g.record_edge(2, 3, amount=9)
        path = tmp_path / "g.pajek"
        export_pajek(g, path)
        lines = path.read_text().splitlines()
        assert lines[lines.index("*Edges") + 1:] == ["1 2 4", "2 3 9"]

    def test_io_failure_raises_export_error(self, tmp_path):
        with pytest.raises(ExportError):
            export_pajek(two_node_graph(), tmp_path)

    def test_non_ascii_key_raises_export_error(self, tmp_path):
        g = InteractionGraph()
        g.intern_node("café")
        with pytest.raises(ExportError):
            export_pajek(g, tmp_path / "g.pajek")


class TestExportJson:
    def test_two_node_file(self, tmp_path):
        path = tmp_path / "g.json"
        export_json(two_node_graph(), path)
        assert path.read_text() == '{"vertices":["A","B"],"edges":[["A","B",8]]}\n'

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "g.json"
        export_json(InteractionGraph(), path)
        assert path.read_text() == '{"vertices":[],"edges":[]}\n'

    def test_chain_is_recorded_when_known(self, tmp_path):
        path = tmp_path / "g.json"
        export_json(two_node_graph(Chain.BITCOIN), path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["chain", "vertices", "edges"]
        assert doc["chain"] == "bitcoin"

    def test_io_failure_raises_export_error(self, tmp_path):
        with pytest.raises(ExportError):
            export_json(two_node_graph(), tmp_path)


class TestAtomicReplace:
    """Exports write a temp file beside the target and rename it over it."""

    @pytest.mark.parametrize("export", [export_json, export_pajek])
    def test_export_onto_a_directory_leaves_no_temp_file(self, tmp_path, export):
        target = tmp_path / "graph"
        target.mkdir()
        with pytest.raises(ExportError):
            export(two_node_graph(), target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graph"]

    @pytest.mark.parametrize("export", [export_json, export_pajek])
    def test_failed_rename_keeps_the_older_file(self, tmp_path, monkeypatch,
                                                export):
        path = tmp_path / "g"
        path.write_bytes(b"older graph\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(ExportError, match="rename refused"):
            export(two_node_graph(), path)
        assert path.read_bytes() == b"older graph\n"
        assert list(tmp_path.iterdir()) == [path]


class TestStrictJson:
    """Every JSON file ledgernet reads or writes goes through these."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_rejected(self, token):
        with pytest.raises(ValueError) as info:
            parse_json(f'{{"x": [1, {token}]}}')
        assert str(info.value) == f"{token} is not a JSON number"
        assert not isinstance(info.value, json.JSONDecodeError)

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError, match="^maximum recursion depth"):
            parse_json("[" * 100_000)

    def test_bad_syntax_keeps_its_position(self):
        with pytest.raises(json.JSONDecodeError) as info:
            parse_json('{\n  "x": nan}')
        assert (info.value.lineno, info.value.colno) == (2, 8)

    def test_finite_numbers_are_kept(self):
        assert parse_json('{"x": [1e308, -0.5, 10]}') == {"x": [1e308, -0.5, 10]}

    @pytest.mark.parametrize("content, error", [
        (b"[1]", TypeError), (b'"x"', TypeError), (b"\xff\xfe{}", ValueError),
        (b'{"x": NaN}', ValueError), (b"", ValueError)])
    def test_read_json_wants_a_strict_json_object(self, tmp_path, content, error):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(error):
            read_json(path)

    def test_write_json_round_trips_through_read_json(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"b": [1, 2.5, None], "a": "\u00e9"}
        write_json(path, doc, indent=2)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
        assert read_json(path) == doc

    def test_failed_rename_keeps_the_older_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        path.write_bytes(b"{}\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_json(path, {"x": 1})
        assert path.read_bytes() == b"{}\n"
        assert list(tmp_path.iterdir()) == [path]


class TestUnencodableGraph:
    """An export encodes its whole payload before it opens the file."""

    CASES = [(export_json, "a\ud800"), (export_pajek, "a\ud800"),
             (export_pajek, "caf\u00e9")]

    @staticmethod
    def graph_with(key):
        g = InteractionGraph(Chain.BITCOIN)
        g.intern_node(key)
        g.intern_node("b")
        g.record_edge(1, 2, amount=5)
        return g

    @pytest.mark.parametrize("export, key", CASES)
    def test_leaves_no_file(self, tmp_path, export, key):
        path = tmp_path / "g"
        with pytest.raises(ExportError) as info:
            export(self.graph_with(key), path)
        assert str(info.value).startswith(f"cannot write {path}: ")
        assert "\n" not in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("export, key", CASES)
    def test_keeps_the_older_file(self, tmp_path, export, key):
        path = tmp_path / "g"
        export(two_node_graph(), path)
        before = path.read_bytes()
        with pytest.raises(ExportError):
            export(self.graph_with(key), path)
        assert path.read_bytes() == before


@pytest.mark.parametrize("export", [export_json, export_pajek])
def test_amount_past_the_int_digit_limit_raises_export_error(tmp_path, export):
    g = two_node_graph()
    g.adj[1][2] = g.adj[2][1] = 10 ** 4300  # 4,301 digits
    path = tmp_path / "g"
    path.write_bytes(b"older graph\n")
    with pytest.raises(ExportError) as info:
        export(g, path)
    assert str(info.value).startswith(f"cannot write {path}: Exceeds the limit ")
    assert path.read_bytes() == b"older graph\n"
    assert list(tmp_path.iterdir()) == [path]


class TestImportGraph:
    def test_pajek_inverse_of_export(self, tmp_path):
        path = tmp_path / "g.pajek"
        export_pajek(two_node_graph(), path)
        g = import_graph(path, "pajek")
        assert g.node_keys() == ["A", "B"]
        assert g.edge_triples() == [(1, 2, 8)]
        assert g.chain is None

    def test_json_restores_chain(self, tmp_path):
        path = tmp_path / "g.json"
        export_json(two_node_graph(Chain.ETHEREUM), path)
        assert import_graph(path, "json").chain is Chain.ETHEREUM

    def test_json_edge_with_unlisted_vertex(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":["A","B"],"edges":[["A","X",1]]}')
        with pytest.raises(ParseError):
            import_graph(path, "json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(UsageError):
            import_graph(tmp_path / "g.json", "graphml")

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.pajek"
        with pytest.raises(ParseError, match="absent.pajek"):
            import_graph(path, "pajek")

    @pytest.mark.parametrize("fmt", ["json", "pajek"])
    def test_file_that_is_not_utf8_names_path(self, tmp_path, fmt):
        path = tmp_path / f"g.{fmt}"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="cannot read graph file") as info:
            import_graph(path)
        assert info.value.path == path

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path):
        # json raises RecursionError here, which is no ValueError
        path = tmp_path / "g.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ParseError, match="maximum recursion depth") as info:
            import_graph(path)
        assert info.value.path == path
        assert "\n" not in str(info.value)

    def test_json_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":[\n  "A",,\n]}')
        with pytest.raises(ParseError) as info:
            import_graph(path, "json")
        assert info.value.line == 2
        assert info.value.offset is not None

    PAJEK_ERRORS = [
        ('*Vertices x\n*Edges\n', 1, 1, "expected '*Vertices <n>', got '*Vertices x'"),
        ('*Vertices 2\n1 "A"\n*Edges\n', 3, 1, "file ends inside the 2-vertex section"),
        ('*Vertices 1\n2 "A"\n*Edges\n', 2, 1, "vertex IDs must run 1..1; got 2"),
        ('*Vertices 2\n1 "A"\n2 "A"\n*Edges\n', 3, 3,
         "empty or duplicate vertex key: 'A'"),
        ('*Vertices 1\n1 ""\n*Edges\n', 2, 3, "empty or duplicate vertex key: ''"),
        ('*Vertices 1\n1 A\n*Edges\n', 2, 1, "bad vertex line: '1 A'"),
        ('*Vertices 2\n1 "A"\n2 "B"\nedges\n', 4, 1, "expected '*Edges', got 'edges'"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 3 1\n', 5, 1,
         "edge names unknown vertex 3"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 1 1\n', 5, 1, "self-loop on vertex 1"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 1\n2 1 9\n', 6, 1,
         "duplicate edge 2 - 1"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2\n', 5, 1, "bad edge line: '1 2'"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n3 1 1\n', 5, 1,
         "edge names unknown vertex 3"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n0 2 1\n', 5, 1,
         "edge names unknown vertex 0"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 1 1\n', 5, 1,
         "bad edge line: '1 2 1 1'"),
        # str.isdigit() accepts "²", which int() rejects.
        ('*Vertices \u00b2\n*Edges\n', 1, 1, "expected '*Vertices <n>', got '*Vertices \u00b2'"),
        # \d and int() accept Arabic-Indic digits; the format takes ASCII only.
        ('*Vertices 1\n\u0661 "A"\n*Edges\n', 2, 1, "bad vertex line: '\u0661 \"A\"'"),
        ('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n\u0661 2 \u0663\n', 5, 1,
         "bad edge line: '\u0661 2 \u0663'"),
    ]

    @pytest.mark.parametrize("body, bad_line, offset, message", PAJEK_ERRORS,
                             ids=[f"{row[0]}-{row[1]}" for row in PAJEK_ERRORS])
    def test_pajek_errors_carry_line_numbers(self, tmp_path, body, bad_line,
                                             offset, message):
        path = tmp_path / "g.pajek"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            import_graph(path, "pajek")
        assert info.value.line == bad_line
        assert info.value.offset == offset
        assert str(info.value) == f"{path}: line {bad_line}, column {offset}: {message}"

    @pytest.mark.parametrize("fmt, body, quoted", [
        ("pajek", '{"vertices":["' + "A" * 1_000_000 + '"],"edges":[]}',
         "expected '*Vertices <n>', got '{\"vertices\":[\"" + "A" * 65 + "..."),
        ("json", '{"vertices":[["' + "A" * 1_000_000 + '"]],"edges":[]}',
         "bad vertex key: ['" + "A" * 78 + "..."),
        ("pajek", "*Vertices " + "9" * 4000 + "\n",
         "file ends inside the " + "9" * 80 + "...-vertex section"),
        ("pajek", "*Vertices 1\n" + "9" * 4000 + ' "A"\n*Edges\n',
         "vertex IDs must run 1..1; got " + "9" * 80 + "..."),
        ("pajek", '*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 ' + "9" * 4000 + " 1\n",
         "edge names unknown vertex " + "9" * 80 + "..."),
    ], ids=["pajek-header", "json-vertex-key", "pajek-vertex-count", "pajek-vertex-id",
            "pajek-edge-end"])
    def test_error_quotes_at_most_the_start_of_a_long_input(
            self, tmp_path, capsys, fmt, body, quoted):
        from ledgernet import cli
        path = tmp_path / "g.json"
        path.write_text(body)  # about 1 MB on one line
        assert cli.main(["analyze", "--graph", str(path), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode("utf-8")) <= 300
        assert err.endswith(f": {quoted}\n")

    JSON_ERRORS = [
        ('[]', "top-level value is not an object"),
        ('{"vertices":["A","A"],"edges":[]}', "duplicate vertex: 'A'"),
        ('{"vertices":["A"],"edges":[["A","A",1]]}', "self-loop on vertex 'A'"),
        ('{"vertices":["A","B"],"edges":[["A","B",1],["B","A",2]]}',
         "duplicate edge 'B' - 'A'"),
        ('{"vertices":["A","B"],"edges":[["A","B",1.5]]}', "bad edge amount: 1.5"),
        ('{"vertices":["A","B"],"edges":[["A","B"]]}',
         "edge is not a [key, key, amount] triple: ['A', 'B']"),
        ('{"vertices":["A"],"edges":[],"extra":1}', "unknown keys: ['extra']"),
        ('{"chain":"solana","vertices":[],"edges":[]}', "unknown chain: 'solana'"),
        ('{"vertices":[""],"edges":[]}', "bad vertex key: ''"),
        ('{"vertices":["A",1],"edges":[]}', "bad vertex key: 1"),
        ('{"vertices":["A","B"],"edges":[["A","B",true]]}', "bad edge amount: True"),
        ('{"vertices":["A","B"],"edges":[["A","B",-1]]}', "bad edge amount: -1"),
        ('{"vertices":["A","B"],"edges":[["A",2,1]]}', "bad edge endpoint: 2"),
        ('{"vertices":["A","B"],"edges":[["A",["B"],1]]}', "bad edge endpoint: ['B']"),
        ('{"vertices":["A","B"],"edges":[["X",["B"],1]]}',
         "edge names unlisted vertex: 'X'"),
        ('{"vertices":["A","B"],"edges":["AB1"]}',
         "edge is not a [key, key, amount] triple: 'AB1'"),
        ('{"vertices":["A","B"],"edges":[["A","X",1]]}',
         "edge names unlisted vertex: 'X'"),
        ('{"vertices":["A","B"],"edges":[["A","B",NaN]]}', "NaN is not a JSON number"),
    ]

    @pytest.mark.parametrize("doc, message", JSON_ERRORS,
                             ids=[row[0] for row in JSON_ERRORS])
    def test_json_semantic_errors(self, tmp_path, doc, message):
        path = tmp_path / "g.json"
        path.write_text(doc)
        with pytest.raises(ParseError) as info:
            import_graph(path, "json")
        assert str(info.value) == f"{path}: {message}"

    def test_either_endpoint_order_is_read_back_normalized(self, tmp_path):
        path = tmp_path / "g.pajek"
        path.write_text('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n2 1 8\n')
        assert import_graph(path, "pajek").edge_triples() == [(1, 2, 8)]


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["json", "pajek"])
    def test_random_graphs_round_trip(self, tmp_path, fmt):
        rng = random.Random(42)
        for case in range(30):
            n = rng.randrange(0, 51)
            m = rng.randrange(0, n * (n - 1) // 2 + 1) if n > 1 else 0
            g = oracles.graph_from_edges(n, oracles.random_gnm_edge_set(rng, n, m))
            path = tmp_path / f"g{case}.{fmt}"
            export_graph(g, path, fmt)
            assert_same_graph(g, import_graph(path, fmt))

    @pytest.mark.parametrize("fmt", ["json", "pajek"])
    def test_exports_are_byte_deterministic(self, tmp_path, fmt):
        rng = random.Random(5)
        g = oracles.graph_from_edges(20, oracles.random_gnm_edge_set(rng, 20, 40))
        first = tmp_path / f"a.{fmt}"
        second = tmp_path / f"b.{fmt}"
        export_graph(g, first, fmt)
        export_graph(g, second, fmt)
        assert first.read_bytes() == second.read_bytes()


class TestInferFormat:
    @pytest.mark.parametrize("name, fmt", [
        ("graph.json", "json"), ("graph.pajek", "pajek"),
        ("graph.net", "pajek"), ("G.JSON", "json"),
    ])
    def test_known_suffixes(self, name, fmt):
        assert infer_format(name) == fmt

    def test_unknown_suffix(self):
        with pytest.raises(UsageError):
            infer_format("graph.txt")
