"""Pinned `classify --json` payloads on fixed-seed inputs, plus the
LP-backed payloads of `classify --oracle`, `attainment` and `free_norm`.

Each input is built here from a fixed seed and classified through the
CLI. The SHA-256 of the report envelope without its timestamp was
recorded before the one-pass classifier kernel replaced the per-pair
scans, so any drift in verdicts, witnesses, ratios, modulus tables,
aligned triples or their order shows as a changed digest.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from freelip.cli import main
from support import closure, inject_midpoint, random_exact_matrix


def _entry(v):
    return f"{v.numerator}/{v.denominator}" if isinstance(v, F) else v


def _matrix_doc(matrix, mode):
    n = len(matrix)
    return {
        "labels": [f"x{i}" for i in range(n)],
        "base": "x0",
        "matrix": [[_entry(v) for v in row] for row in matrix],
        "mode": mode,
    }


def exact_wide_midpoint():
    rng = random.Random(2017)
    matrix = random_exact_matrix(rng, 19, denominators=tuple(range(1, 13)))
    matrix, _ = inject_midpoint(matrix, rng)
    return _matrix_doc(matrix, "exact")


def exact_ties():
    rng = random.Random(7)
    n = 11
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((1, 2))
    return _matrix_doc(m, "exact")


def float_12():
    rng = random.Random(12)
    n = 12
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.uniform(1.0, 10.0)
    return _matrix_doc(closure(m), "float")


def exact_8():
    rng = random.Random(88)
    matrix, _ = inject_midpoint(random_exact_matrix(rng, 7), rng)
    return _matrix_doc(matrix, "exact")


def l1_cloud():
    rng = random.Random(11)
    pts = {}
    while len(pts) < 9:
        xy = (rng.randint(0, 4), rng.randint(0, 3))
        pts.setdefault(xy, f"c{len(pts)}")
    return {
        "points": {lab: [str(x), str(y)] for (x, y), lab in pts.items()},
        "norm": "l1",
        "base": "c0",
    }


def l2_cloud():
    # Collinear runs on both axes and a diagonal, plus off-line points.
    coords = {
        "o": [0, 0], "a": ["1/3", 0], "b": [1, 0], "c": [0, "2/5"],
        "d": [0, 2], "e": ["1/2", "1/2"], "f": [2, 2], "g": ["3/7", "5/3"],
    }
    return {"points": {k: [str(c) for c in v] for k, v in coords.items()}, "norm": "l2", "base": "o"}


GOLDEN = {
    "exact-n20-wide-midpoint": "6f7742748efcc7baafcca22aaf1347b0de73654ec93022364ea5f85ce8ba4d53",
    "exact-ties": "f5212d7c708cdbae5c7b6f0ee4feff685addbd0c198b528fbe714fb437ca53c1",
    "float-n12": "3eca3ec26b6f3cc68e035ccad3a312f8b8a05d41a83bcb1fa469185bb74e5c74",
    "snowflake-exact-n8": "e36d18648b80e2383d595a2a5186cfb4237f57741625dc5f484093f1ae348251",
    "spiral-depth4": "616053c744dda20435fbd2512b3b8bd56f4792e8eea3361667198eb1d4bc25c4",
    "l1-cloud": "a46ca3dd8fc97fc644c43bc5e014a2560213b12804224f7f68bcc50214a3d784",
    "l2-cloud": "4cfa3b4eae77958222a3f9ff45a35aff2f70adf4e4a85067c82233e56bc384a9",
}


def _write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _input_path(name, tmp_path, capsys):
    if name == "snowflake-exact-n8":
        base = _write(tmp_path, "base", exact_8())
        out = str(tmp_path / "snowflake.json")
        assert main(["generate", "holder", "--input", base, "--alpha", "2/3", "--out", out]) == 0
        capsys.readouterr()
        return out
    if name == "spiral-depth4":
        out = str(tmp_path / "spiral.json")
        assert main(["generate", "spiral", "--depth", "4", "--seed", "5", "--out", out]) == 0
        capsys.readouterr()
        return out
    build = {
        "exact-n20-wide-midpoint": exact_wide_midpoint,
        "exact-ties": exact_ties,
        "float-n12": float_12,
        "l1-cloud": l1_cloud,
        "l2-cloud": l2_cloud,
    }[name]
    return _write(tmp_path, name, build())


def envelope_digest(out: str) -> str:
    envelope = json.loads(out)
    envelope.pop("timestamp")
    blob = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_classify_payload_digest(name, tmp_path, capsys):
    path = _input_path(name, tmp_path, capsys)
    assert main(["classify", path, "--json"]) == 0
    assert envelope_digest(capsys.readouterr().out) == GOLDEN[name]


# LP-backed payloads: the vertex oracle's certificates and the attainment
# intervals come straight out of the simplex (optimal vertex, Farkas
# multipliers), so these pin its pivot path, not just its verdicts. Recorded
# before the simplex moved from a Fraction tableau to an integer one.


def exact_7_midpoint():
    rng = random.Random(4242)
    matrix = random_exact_matrix(rng, 6, denominators=tuple(range(1, 13)))
    matrix, _ = inject_midpoint(matrix, rng)
    return _matrix_doc(matrix, "exact")


def exact_7_plain():
    # every distance in [1, 2): each triangle inequality is strict, so no
    # point is a middle and every molecule is a vertex
    rng = random.Random(707)
    n = 7
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = F(rng.randint(60, 119), 60)
    return _matrix_doc(m, "exact")


LP_GOLDEN = {
    "oracle-n7-midpoint": "a97c1a82cddc6073a57f2e630669ef3c1914e8c94659d05954159fc3730fe454",
    "oracle-n7-plain": "24ca658b15046ded30b115c97cb99a768f4fdf661b9bbc87168f5772c0951135",
    "attainment-n7-full": "78d95901c9620761544c0efe61aa27c6c37e8ed4f7e6961e45788231c791df15",
    "attainment-n7-lazy": "bdee78bcae3d46ea63e9c5a836684b53db97ede4048718d7d1aa1bca3c3fc8eb",
}
FREE_NORM_GOLDEN = "6fd6b58b1b95316a38cce2516d0d0a3392b36d33462d253bc3f45c78ff9b8d22"


def _lp_argv(name, tmp_path):
    if name.startswith("oracle"):
        doc = exact_7_midpoint() if name.endswith("midpoint") else exact_7_plain()
        return ["classify", _write(tmp_path, name, doc), "--oracle", "--json"]
    path = _write(tmp_path, name, exact_7_midpoint())
    return ["attainment", path, "x1", "x4", "--intervals", name.rsplit("-", 1)[1], "--json"]


@pytest.mark.parametrize("name", sorted(LP_GOLDEN))
def test_lp_payload_digest(name, tmp_path, capsys):
    assert main(_lp_argv(name, tmp_path)) == 0
    assert envelope_digest(capsys.readouterr().out) == LP_GOLDEN[name]


def test_free_norm_witness_digest():
    from freelip import formats, polytope, validate

    doc = exact_7_plain()
    space = validate(
        [[F(v) for v in row] for row in doc["matrix"]], doc["labels"], base="x0", mode="exact"
    )
    rng = random.Random(5)
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(space.n - 1)]
    value, witness = polytope.free_norm(space, coeffs, with_witness=True)
    blob = json.dumps(
        {
            "value": formats.number_to_json(value),
            "witness": {k: formats.number_to_json(v) for k, v in witness.items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == FREE_NORM_GOLDEN


# Library values in both number modes. The repr of each result was recorded
# before the exact-or-float conversions of lipfun, polytope and space were
# folded into FiniteMetricSpace.num, so a value that changes type or rounding
# in either mode shows as a changed digest.


def _mode_space(mode):
    from support import random_float_space, random_space_with_midpoint

    if mode == "float":
        return random_float_space(random.Random(606), 6, base=2)
    space, _ = random_space_with_midpoint(random.Random(607), 6, base=3)
    return space


def _plain(value):
    """A repr-stable form: a LipFunction by its values and constant."""
    from dataclasses import fields, is_dataclass

    from freelip import LipFunction

    if isinstance(value, LipFunction):
        return ("LipFunction", _plain(value.values), _plain(value.lip_constant))
    if is_dataclass(value):
        return (type(value).__name__, *(_plain(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _plain(v)) for k, v in value.items())
    return value


def _mode_values(space, name):
    import freelip as fl

    n = space.n
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    # the first pair with no point between it, for peaking and attainment
    p, q = next(pq for pq in pairs if fl.peaking_margin(space, *pq) > 0)
    coeffs = [F(k * k - 4 * k + 1, 3) for k in range(n - 1)]
    f = fl.LipFunction(space, [F(k * k - 3 * k, 7) for k in range(n)])
    if name == "LipFunction":
        return [f, f.rebase(), fl.LipFunction(space, [2, 0, F(1, 3), 5, -1, F(7, 4)])]
    if name == "mcshane_extend":
        return [
            fl.mcshane_extend(space, [0, 2, 5], [F(1, 3), 2, F(-1, 2)]),
            fl.mcshane_extend(space, ["x1", "x4"], {"x1": 1, "x4": F(5, 2)}, rebase=True),
        ]
    if name == "peaking_margin":
        return [fl.peaking_margin(space, *pq) for pq in pairs]
    if name == "peaking_candidate":
        c = fl.peaking_margin(space, p, q)
        return [fl.peaking_candidate(space, p, q), fl.peaking_candidate(space, p, q, alpha=F(c) / 3)]
    if name == "attainment_set":
        return [fl.attainment_set(space, p, q, intervals=k) for k in ("lazy", "full")]
    if name == "pairing":
        return [fl.pairing(space, coeffs, f), fl.pairing(space, [1] * (n - 1), f.as_dict())]
    if name == "free_norm":
        return [
            fl.free_norm(space, coeffs, with_witness=True),
            fl.free_norm(space, [0] * (n - 1), with_witness=True),
            fl.free_norm(space, fl.molecule_vector(space, 1, 4).vector),
        ]
    if name == "decomposition_check":
        return [fl.decomposition_check(space, *t) for t in ((0, 1, 2), (5, 3, 1), (4, 0, 5))]
    if name == "concavity_modulus":
        return [
            [fl.classify_pair(space, *pq).modulus for pq in pairs],
            fl.concavity_modulus(space, p, q, [F(1, 2), 1, F(7, 3), 100]),
        ]
    raise KeyError(name)


MODE_GOLDEN = {
    ("exact", "LipFunction"): "7a55e4edcc284f9e54d8dfa9eaac64fdec945ae03cde3adddd3d34f540eada20",
    ("exact", "mcshane_extend"): "b0b82211161c5696de7e0024cf13926ceed4aa07498f49d040c93da5d4644af2",
    ("exact", "peaking_margin"): "6762e58f2a4c080aa69fca6c1609d4dc94ded945782c61193bd07f5366c1f245",
    ("exact", "peaking_candidate"): "4b44f2aae6671a8c7d4988261cdcf4ab66c122abe5660745e5962b01e9b0733f",
    ("exact", "attainment_set"): "b6c2f4ca7eff01587d8081ddb17f1e0cbb3edfbd57845f4f1c7f5776c57ecd52",
    ("exact", "pairing"): "0e99427d0164f2d30c7848410e909c25a4104f04badb48c96f33dd18b102e792",
    ("exact", "free_norm"): "50a3255e1d0a6461f69394f6869e7683eeba65231b67b0ebaffa0e30a1e07606",
    ("exact", "decomposition_check"): "a0483fa53c0b8cb307066dd4278eef064868b18558aedeb51840e3ee97a32b98",
    ("exact", "concavity_modulus"): "094f0a8bddec0c215d9f6ef6d38f86e1dd132e2e33f0f523273a12980cc5f2d9",
    ("float", "LipFunction"): "7d5b56ff5d8f49ecbed4463eb9b0dc1eb45f24d1731c9aa9cac223b0a65d275a",
    ("float", "mcshane_extend"): "2116c4b325fbee9716bc9636436feaf8ec2448a5f232c024e0720f1d48daae89",
    ("float", "peaking_margin"): "b514d91c577fcc8aacffa059a19a3f9385db25cc57ea24557bd7b66a7cd99c9a",
    ("float", "peaking_candidate"): "00b328dbf90ccbe0dbba95d26a3121c7a0ea4af31180c52b8b6903c5963e4594",
    # lazy mode takes the closed form on a float space, so both entries are
    # the full-mode set; re-recorded when that began
    ("float", "attainment_set"): "576551287982dd5fc9b3332e2c4e12e49974c1498e8eae3f11d822ca8b96b24a",
    ("float", "pairing"): "f4da2c4f5710dd07c6e52a2bd22abdc36ad6eca9a89064e172ecb15b1a6ec8ac",
    ("float", "free_norm"): "ff47beb2f8ef781043c44c75d8154d34c064bd95a2638501b7df6061140487f0",
    ("float", "decomposition_check"): "ea2783fa7026462e9d194271fc26609a3e7a63a2eac312ca48c494d06733e0d2",
    ("float", "concavity_modulus"): "b6d410cd9ccd869b1cbf2346c6aeea6051835bbaa6e2ba379ac9561dc950eeaa",
}


@pytest.mark.parametrize("mode, name", sorted(MODE_GOLDEN))
def test_mode_value_digest(mode, name):
    blob = repr(_plain(_mode_values(_mode_space(mode), name)))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == MODE_GOLDEN[mode, name]
