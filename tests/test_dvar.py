import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holeflow.dvar import DvarParseError, read_dvar, write_dvar
from holeflow.fixtures import circle_mesh, make_fixture


def test_roundtrip_triangle_mesh(tmp_path):
    v = make_fixture("flat_stack", 2, 3, radius=0.2, spacing=0.001)
    path = tmp_path / "mesh.dvar"
    write_dvar(v, path)
    back = read_dvar(path)
    assert np.array_equal(back.vertices, v.vertices)  # 17 digits: exact
    assert np.array_equal(back.faces, v.faces)
    assert np.array_equal(back.multiplicity, v.multiplicity)
    assert np.array_equal(back.boundary, v.boundary)


def test_roundtrip_segment_mesh(tmp_path):
    v = circle_mesh(3)
    path = tmp_path / "circle.dvar"
    write_dvar(v, path)
    back = read_dvar(path)
    assert np.array_equal(back.vertices, v.vertices)
    assert back.ambient_dim == 2


@pytest.mark.parametrize("content,lineno", [
    ("", 1),
    ("DVAR 2 3\n", 1),
    ("DVAR 1 5\n", 1),
    ("DVAR 1 3\nv 1 2\n", 2),
    ("DVAR 1 3\nv a b c\n", 2),
    ("DVAR 1 3\nv 0 0 0\nf 0 0\n", 3),
    ("DVAR 1 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2 0\n", 5),
    ("DVAR 1 3\nv 0 0 0\nb x\n", 3),
    ("DVAR 1 3\nq 1\n", 2),
    ("DVAR 1 3\nv 0 0 nan\n", 2),
    ("DVAR 1 3\nv 0 0 0\nv inf 0 0\n", 3),
    ("DVAR 1 3\nv 0 0 0\nv 1 0 0\nf 0 0 1 1\n", 4),
    ("DVAR 1 3\nv 0 0 0\nv 1 0 0\nv 2 0 0\nf 0 1 2 1\n", 5),
    ("DVAR 1 2\nv 0 0\nv 1 0\nf 0 1 1\nf 1 1 1\n", 5),
])
def test_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.dvar"
    path.write_text(content)
    with pytest.raises(DvarParseError) as err:
        read_dvar(path)
    assert f"line {lineno}" in str(err.value)


def test_out_of_range_indices(tmp_path):
    path = tmp_path / "oob.dvar"
    path.write_text("DVAR 1 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 9 1\n")
    with pytest.raises(DvarParseError, match="out of range"):
        read_dvar(path)


VALID = ["DVAR 1 3", "v 0 0 0", "v 1 0 0", "v 0 1 0", "v 1 1 0",
         "f 0 1 2 1", "f 1 3 2 2", "b 0"]

# Records that are malformed on their own or against VALID, by tag.
BREAKS = {
    "v": ["v 0 0", "v 0 0 0 0", "v x 0 0", "v 0 nan 0", "v inf 0 0",
          "v 0 0 -inf", "v 0,5 0 0"],
    "f": ["f 0 1 2", "f 0 1 2 1 1", "f 0 1 x 1", "f 0 1 2 0", "f 0 1 2 -3",
          "f 0 1 2 1.5", "f 0 1 4 1", "f -1 1 2 1", "f 0 0 2 1",
          "f 0 2 2 1", "f 3 3 3 1", "f 0 1 99999999999999999999 1",
          "f 0 1 2 99999999999999999999"],
    "b": ["b", "b 0 1", "b x", "b 4", "b -1"],
    "other": ["q 0", "vv 0 0 0", "F 0 1 2 1"],
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_file_raises_with_its_line_number(tmp_path_factory, data):
    lines = list(VALID)
    at = data.draw(st.integers(1, len(lines)), label="insert before")
    tag = data.draw(st.sampled_from(sorted(BREAKS)), label="record kind")
    lines.insert(at, data.draw(st.sampled_from(BREAKS[tag]),
                               label="bad record"))
    # blank lines shift the numbering but are never errors
    pad = data.draw(st.integers(0, 2), label="blank lines before")
    text = "\n".join(lines[:1] + [""] * pad + lines[1:]) + "\n"
    path = tmp_path_factory.mktemp("dvar") / "bad.dvar"
    path.write_text(text)
    with pytest.raises(DvarParseError) as err:
        read_dvar(path)
    assert err.value.line_no == at + 1 + pad
    assert f"line {at + 1 + pad}:" in str(err.value)


def test_valid_base_file_parses(tmp_path):
    path = tmp_path / "ok.dvar"
    path.write_text("\n".join(VALID) + "\n")
    v = read_dvar(path)
    assert v.num_faces == 2 and v.total_mass() == pytest.approx(1.5)
