"""FCIDUMP reading/writing: round-trips, tolerant parsing, error handling."""

from pathlib import Path

import numpy as np
import pytest
from conftest import tensor_gap

from hcbmeasure.encoding import build_qubit_hamiltonian
from hcbmeasure.fcidump import read_fcidump, read_fcidump_header, write_fcidump
from hcbmeasure.simulator import ground_state

DATA = Path(__file__).parent / "data"


def test_round_trip_h2(h2_tensors, tmp_path):
    path = tmp_path / "h2.fcidump"
    write_fcidump(h2_tensors, path)
    back = read_fcidump(path)
    assert tensor_gap(h2_tensors, back) < 1e-12


def test_round_trip_h4(h4_tensors, tmp_path):
    path = tmp_path / "h4.fcidump"
    write_fcidump(h4_tensors, path)
    back = read_fcidump(path)
    assert tensor_gap(h4_tensors, back) < 1e-12
    header = read_fcidump_header(path)
    assert header["NORB"] == 4
    assert header["NELEC"] == 4


def test_external_fixture_cross_check(h4_tensors):
    """Energies from an independently produced file agree with in-house ones.

    The fixture was emitted by a from-scratch integral + determinant-CI
    implementation (different Boys-function route, orthogonalizer,
    many-body solver, and text emitter); agreement of the 4-electron
    ground energies validates the whole tensor pipeline end to end.
    """
    fixture = DATA / "h4_line_1p5_external.fcidump"
    external = read_fcidump(fixture)
    header = read_fcidump_header(fixture)
    e_external, _ = ground_state(
        build_qubit_hamiltonian(external, "interleaved"), header["NELEC"])
    e_own, _ = ground_state(
        build_qubit_hamiltonian(h4_tensors, "interleaved"), 4)
    assert abs(e_external - e_own) < 1e-6


def test_core_energy_terminator(tmp_path):
    path = tmp_path / "core.fcidump"
    path.write_text(
        "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
        "0.5 1 1 1 1\n-1.1 1 1 0 0\n0.0 0 0 0 0\n")
    tensors = read_fcidump(path)
    assert tensors.e_nuc == 0.0
    assert tensors.one_body[0, 0] == -1.1


def test_slash_terminated_header_and_orbital_energy_lines(tmp_path):
    path = tmp_path / "molpro.fcidump"
    path.write_text(
        "&FCI NORB= 2,NELEC=2\n /\n"
        "0.5 1 1 1 1\n"
        "-0.9 1 0 0 0\n"   # orbital-energy record: ignored
        "-1.1 1 1 0 0\n"
        "0.25 0 0 0 0\n")
    tensors = read_fcidump(path)
    assert tensors.e_nuc == 0.25
    assert tensors.two_body[0, 0, 0, 0] == 0.5


def test_eightfold_fill(tmp_path):
    path = tmp_path / "sym.fcidump"
    path.write_text("&FCI NORB=3,NELEC=2,&END\n0.125 2 1 3 1\n0.0 0 0 0 0\n")
    tensors = read_fcidump(path)
    chem = np.einsum("ikjl->ijkl", tensors.two_body)  # back to chemist labels
    p, q, r, s = 1, 0, 2, 0
    for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                       (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
        assert chem[a, b, c, d] == 0.125


def test_duplicate_identical_records_tolerated(tmp_path):
    path = tmp_path / "dup.fcidump"
    path.write_text(
        "&FCI NORB=2,NELEC=2,&END\n0.5 1 1 1 1\n0.5 1 1 1 1\n0.0 0 0 0 0\n")
    assert read_fcidump(path).two_body[0, 0, 0, 0] == 0.5


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("&WRONG NORB=2 &END\n0.0 0 0 0 0\n", "&FCI"),
        ("&FCI NELEC=2,&END\n0.0 0 0 0 0\n", "NORB"),
        ("&FCI NORB=2,&END\n1.0 3 1 1 1\n", "outside"),
        ("&FCI NORB=2,&END\n1.0 1 1 1 1\n2.0 1 1 1 1\n", "conflicting"),
        ("&FCI NORB=2,&END\n1.0 1 1\n", "5 tokens"),
        ("&FCI NORB=2,&END\n1.0 1 0 1 1\n", "record type"),
        ("&FCI NORB=2,\n1.0 1 1 1 1\n", "&END"),
        ("&FCI NORB=x,&END\n", "integer"),
    ],
)
def test_malformed_inputs(tmp_path, body, fragment):
    path = tmp_path / "bad.fcidump"
    path.write_text(body)
    with pytest.raises(ValueError, match=fragment):
        read_fcidump(path)


def test_duplicate_conflicting_one_body(tmp_path):
    path = tmp_path / "duph.fcidump"
    path.write_text(
        "&FCI NORB=2,&END\n-1.0 1 1 0 0\n-2.0 1 1 0 0\n0.0 0 0 0 0\n")
    with pytest.raises(ValueError, match="one-body"):
        read_fcidump(path)


def test_write_custom_electron_count(h2_tensors, tmp_path):
    path = tmp_path / "ions.fcidump"
    write_fcidump(h2_tensors, path, n_electrons=1, ms2=1)
    header = read_fcidump_header(path)
    assert header["NELEC"] == 1
    assert header["MS2"] == 1
