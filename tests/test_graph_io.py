"""Unit tests for tie-list persistence."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import discover_and_apply
from repro.graph import (
    GraphValidationError,
    MixedSocialNetwork,
    TieKind,
    read_tie_list,
    write_tie_list,
)

from .test_graph_store import mixed_networks

GOLDEN = Path(__file__).parent / "data" / "golden_ties.tsv"


def test_roundtrip(tiny_network, tmp_path):
    path = tmp_path / "net.tsv"
    write_tie_list(tiny_network, path)
    back = read_tie_list(path)
    assert back.n_nodes == tiny_network.n_nodes
    for kind in (TieKind.DIRECTED, TieKind.BIDIRECTIONAL, TieKind.UNDIRECTED):
        original = {tuple(p) for p in tiny_network.social_ties(kind)}
        restored = {tuple(p) for p in back.social_ties(kind)}
        assert original == restored


@given(net=mixed_networks())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_roundtrip_preserves_store(net, tmp_path):
    path = tmp_path / "net.tsv"
    write_tie_list(net, path)
    back = read_tie_list(path)
    assert back.store.fingerprint() == net.store.fingerprint()
    for name in ("tie_src", "tie_dst", "tie_kind", "reverse_of"):
        assert np.array_equal(getattr(back, name), getattr(net, name)), name
    for a, b in zip(back.store.out_csr(), net.store.out_csr()):
        assert np.array_equal(a, b)
    for a, b in zip(back.store.und_csr(), net.store.und_csr()):
        assert np.array_equal(a, b)
    for a, b in zip(back.store.tie_key_index(), net.store.tie_key_index()):
        assert np.array_equal(a, b)


def _golden_network() -> MixedSocialNetwork:
    # Ids of one to four digits, so every column width is exercised.
    return MixedSocialNetwork(
        1235,
        directed_ties=[(0, 9), (10, 0), (1234, 99), (100, 7), (5, 1000)],
        bidirectional_ties=[(9, 10), (99, 100), (1, 1234)],
        undirected_ties=[(0, 1), (1000, 999), (42, 7)],
    )


def test_write_matches_golden_bytes(tmp_path):
    path = tmp_path / "net.tsv"
    write_tie_list(_golden_network(), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_golden_file_is_a_read_write_fixed_point(tmp_path):
    path = tmp_path / "net.tsv"
    write_tie_list(read_tie_list(GOLDEN), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


# -- accepted grammar ---------------------------------------------------


def _read_text(tmp_path, text: str, newline: str = "\n"):
    path = tmp_path / "net.tsv"
    path.write_bytes(text.replace("\n", newline).encode())
    return read_tie_list(path)


def _canonical(tmp_path):
    return _read_text(tmp_path, "# nodes=4\n0\t1\td\n1\t2\tb\n3\t2\tu\n")


def test_crlf_line_endings(tmp_path):
    net = _read_text(
        tmp_path, "# nodes=4\n0\t1\td\n1\t2\tb\n3\t2\tu\n", newline="\r\n"
    )
    assert net.store.fingerprint() == _canonical(tmp_path).store.fingerprint()


def test_blank_lines_and_comments_anywhere(tmp_path):
    net = _read_text(
        tmp_path,
        "\n# leading comment\n# nodes=4\n\n0\t1\td\n# between\n\n"
        "1\t2\tb\n3\t2\tu  # trailing comment\n\n# after data\n",
    )
    assert net.store.fingerprint() == _canonical(tmp_path).store.fingerprint()


def test_surrounding_whitespace(tmp_path):
    net = _read_text(
        tmp_path,
        "  # nodes=4  \n  0\t1\td  \n1 \t 2\tb\t\n\t3\t2\tu \n   \n",
    )
    assert net.store.fingerprint() == _canonical(tmp_path).store.fingerprint()


def test_last_header_wins(tmp_path):
    net = _read_text(tmp_path, "# nodes=3\n0\t1\td\n## nodes=9\n")
    assert net.n_nodes == 9


def test_header_inside_trailing_comment_is_not_a_header(tmp_path):
    with pytest.raises(GraphValidationError, match="missing '# nodes=<n>'"):
        _read_text(tmp_path, "0\t1\td  # nodes=3\n")


def test_blank_lines_and_comments_skipped(tmp_path):
    path = tmp_path / "net.tsv"
    path.write_text("# nodes=3\n\n# a comment\n0\t1\td\n")
    net = read_tie_list(path)
    assert net.n_directed == 1


# -- error taxonomy -----------------------------------------------------


def test_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\td\n")
    with pytest.raises(GraphValidationError, match="nodes="):
        read_tie_list(path)


def test_bad_kind(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# nodes=3\n0\t1\tx\n")
    with pytest.raises(GraphValidationError, match="unknown tie kind"):
        read_tie_list(path)


def test_bad_column_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# nodes=3\n0\t1\n")
    with pytest.raises(GraphValidationError, match="expected"):
        read_tie_list(path)


#: Seven physical lines of preamble: comments, blanks and two good ties.
_PREAMBLE = "# nodes=5\n\n# comment\n0\t1\td\n\n   \n1\t2\tb\n"


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("2\t3\tx", r"line 8: unknown tie kind 'x'"),
        ("2\t3\tdd", r"line 8: unknown tie kind 'dd'"),
        ("2\t3", r"line 8: expected '<u>\\t<v>\\t<kind>'"),
        ("2\t3\tu\textra", r"line 8: expected '<u>\\t<v>\\t<kind>'"),
        ("2\tthree\tu", r"line 8: expected '<u>\\t<v>\\t<kind>'"),
        ("2.0\t3\tu", r"line 8: expected '<u>\\t<v>\\t<kind>'"),
    ],
)
def test_error_names_the_physical_line(tmp_path, bad_line, message):
    with pytest.raises(GraphValidationError, match=message):
        _read_text(tmp_path, _PREAMBLE + bad_line + "\n3\t4\tu\n")


def test_error_line_numbers_count_crlf_lines(tmp_path):
    with pytest.raises(GraphValidationError, match="line 8: unknown tie kind"):
        _read_text(tmp_path, _PREAMBLE + "2\t3\tq\n", newline="\r\n")


def test_unparseable_header(tmp_path):
    with pytest.raises(GraphValidationError, match="line 2: expected '# nodes"):
        _read_text(tmp_path, "0\t1\td\n# nodes=many\n")


def test_header_only_file_reports_empty_directed_set(tmp_path):
    with pytest.raises(GraphValidationError, match=r"\|E_d\| > 0"):
        _read_text(tmp_path, "# nodes=3\n")


# -- array-native at scale ---------------------------------------------


class _StubModel:
    """Just enough of a fitted model for ``discover_and_apply``."""

    def __init__(self, network):
        self.network = network

    def _check_fitted(self):
        return self.network

    def directionality_batch(self, pairs):
        return pairs[:, 1].astype(np.float64) - pairs[:, 0]


@pytest.fixture(scope="module")
def large_network():
    """A ~320k-tie network, past the constructor's tuple-warning cutoff."""
    n = 800
    u, v = np.triu_indices(n, k=1)
    pairs = np.column_stack([u, v])
    assert len(pairs) > 250_000
    third = len(pairs) // 3
    return MixedSocialNetwork.from_arrays(
        n, pairs[:third], pairs[third : 2 * third], pairs[2 * third :]
    )


def test_large_ingest_emits_no_deprecation_warning(large_network, tmp_path):
    path = tmp_path / "large.tsv"
    write_tie_list(large_network, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        back = read_tie_list(path)
    assert back.store.fingerprint() == large_network.store.fingerprint()


def test_large_discover_and_apply_emits_no_deprecation_warning(large_network):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        applied = discover_and_apply(_StubModel(large_network))
    assert applied.n_undirected == 0
    assert applied.n_directed == (
        large_network.n_directed + large_network.n_undirected
    )
    # Tie order is unchanged: E_d first, then each discovered tie.
    n_d = large_network.n_directed
    directed = applied.social_ties(TieKind.DIRECTED)
    assert np.array_equal(
        directed[:n_d], large_network.social_ties(TieKind.DIRECTED)
    )
    # The stub scores u -> v higher whenever v > u.
    assert np.all(directed[n_d:, 0] < directed[n_d:, 1])

