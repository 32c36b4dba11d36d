import pytest

from supercech.errors import ParseError
from supercech.modelfile import parse_model_text, write_gluing

from conftest import corpus_path, load_model


def test_round_trip_through_writer(nonsplit_p1):
    text = write_gluing(nonsplit_p1)
    doc = parse_model_text(text)
    assert doc.gluing == nonsplit_p1


def test_family_round_trip(two_parameter_family):
    text = write_gluing(two_parameter_family)
    doc = parse_model_text(text)
    assert doc.gluing == two_parameter_family
    assert doc.gluing.base_vars == ("t1", "t2")


def test_comments_and_blanks_ignored():
    doc = load_model("split_p1.model")
    assert doc.gluing is not None


def test_declared_splitting_type():
    doc = load_model("nonsplit_p1.model")
    assert doc.declared_splitting_type == 2


def test_parse_error_reports_line():
    bad = "format 1\n\nchart U0\n  fiber x\n  odd 1\n\nchart U1\n  fiber y\n  odd 1\n\n" \
          "overlap U0 U1\noverlap U1 U0\n\ntransition U0 U1\n  y = 1/x + $$\n"
    with pytest.raises(ParseError) as exc:
        parse_model_text(bad)
    assert "line 15" in str(exc.value)


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_model_text("format 1\nfrobnicate U0\n")


def test_gt_model_file(gt_model_doc):
    assert "TX" in gt_model_doc.sheaves
    m = gt_model_doc.gt_models["M"]
    assert m.base_rank == 3 and m.fiber_rank == 1
    assert m.total_odd.rank == 4


def test_base_odd_flag(gtm_odd_base_doc):
    assert gtm_odd_base_doc.base_odd == 1


def test_sheaf_without_gluing_rejected():
    text = "format 1\nsheaf T\n  rank 1\n"
    with pytest.raises(ParseError):
        parse_model_text(text)


def test_document_writer_round_trip(gt_model_doc):
    from supercech.modelfile import write_document
    text = write_document(gt_model_doc)
    doc = parse_model_text(text)
    assert doc.gluing == gt_model_doc.gluing
    assert doc.sheaves["TX"].matrices == gt_model_doc.sheaves["TX"].matrices
    assert doc.gt_models["M"].theta == gt_model_doc.gt_models["M"].theta


def test_glued_family_round_trip(nonsplit_p1):
    from supercech.family import glue_over_p1, read_glued_family, write_glued_family
    glued = glue_over_p1(nonsplit_p1)
    text = write_glued_family(glued)
    doc = parse_model_text(text)
    assert doc.base_atlas == {"base_vars": ("t", "s"), "witness_exponent": -2}
    rebuilt = read_glued_family(doc)
    assert rebuilt.verify().ok
    assert rebuilt.piece_low.gluing == glued.piece_low.gluing


def test_repeated_triple_is_located():
    text = (corpus_path("split_p1_three_charts.model").read_text()
            + "triple U0 U1 U2\n")
    with pytest.raises(ParseError, match="duplicate triple U0 U1 U2") as exc:
        parse_model_text(text)
    assert exc.value.line == len(text.splitlines())


@pytest.mark.parametrize("lineno,replacement,line,message", [
    (27, "    x^-40", 24, "matrices on (U0,U1) and (U1,U0) are not inverse"),
    (37, "    ", 34, "theta ('U0', 'U1') must have 3 rows"),
    (27, "", 26, "matrix ('U0', 'U1') has 0 rows, want 1"),
])
def test_sheaf_and_gtmodel_data_errors_are_located(lineno, replacement, line, message):
    # a check of a block's data fails at the line that opens the block
    lines = corpus_path("gt_model_p1.model").read_text().splitlines()
    lines[lineno - 1] = replacement
    with pytest.raises(ParseError) as exc:
        parse_model_text("\n".join(lines) + "\n")
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}, column 1: {message}"
