"""Golden hashes of persisted outputs under pinned seeds.

The hashes were captured before the IID sampler and the syndrome kernel were
rewritten; any change to the RNG stream, the order in which it is consumed,
or the transcript schema shows up here as a mismatch.
"""

import hashlib
import json

import pytest

from stabtest.cli import main, parse_graph
from stabtest.gf2 import BitVector
from stabtest.pauli import BlockPauli
from stabtest.protocol import (
    ClassMixture,
    Explicit,
    IidPauli,
    estimate,
    run_protocol,
    run_trials,
    transcript_lines,
    transcript_to_json,
)
from stabtest.reduction import compute_reduction

MIXTURE = {"beta": "0.5", "q0": [[0, 0, 3], [2, 1, 1]], "q1": [[1, 0, 1]]}

# (graph, adversary) -> (sha256 of transcripts.jsonl, sha256 of summary.csv)
# for `simulate --k 2 --trials 200 --seed 3`.
SIMULATE_GOLDEN = {
    ("path:5", "honest"): (
        "4336a438c38aa84877bbd283285ab1ef1978a78a07fe7f133ea944e132e40b2e",
        "54e77d21d11c9206ac7e2dc9753d6521c6b2298c0a3bd0bd6a15cae6bf14c9b6",
    ),
    ("path:5", "single-bad:1,1"): (
        "faea8c36d291a1723127ab27e942c22626032ea861f6fdeae315660cb28b9d1e",
        "df830c1592ded73e39f0b5783334a8169231573d266185a84eabfbc6baab58b2",
    ),
    ("path:5", "iid:0.01,0.01"): (
        "dbc13ba8f71c29f9ac36968de29b295fc59f89e162d43139e634d083ee508770",
        "8c70ed1da17d3c8cf131c7311d644b609f153e77c3ea0ffe02d52093a8416d15",
    ),
    ("path:5", "iid:0.3,0.1"): (
        "efe2ecaec93ccbbfdc647ff494b17283973dd9b58d5ffef89b1e16dfa86453ee",
        "7d9f3f69d5e7d7127b6f5d89a42957784a7491017d1916969d7bc124f7e59aba",
    ),
    ("path:5", "iid:0,0"): (
        "cb52492ef514e7656fa4ab0a191e1378181e7faae7c76084171a789d0465359e",
        "f419388b7769d431c2c294ebbee427f6bdce9321f15c5e4272cf0aa0adf9a9a1",
    ),
    ("path:5", "iid:1,1"): (
        "be6f2c4539a72ea0f4ebc1f57b0948d55bc3ef0d8e0d2700b3667d60fcdb9370",
        "96cdd0f5c66fe93aecb98b75f81a4d000597322e19c44a023f4b12e57fdcc742",
    ),
    ("path:5", "mixture:mixture.json"): (
        "d161d1df55c26dfd1558738ac405b4e9f310141f994b3598eb0580242b6a305a",
        "182df088ccd41616c77db6392fd593e3b1d6891a543f9fc23f6afcfb95e9a459",
    ),
    ("grid:3x3", "honest"): (
        "4336a438c38aa84877bbd283285ab1ef1978a78a07fe7f133ea944e132e40b2e",
        "54e77d21d11c9206ac7e2dc9753d6521c6b2298c0a3bd0bd6a15cae6bf14c9b6",
    ),
    ("grid:3x3", "single-bad:1,1"): (
        "faea8c36d291a1723127ab27e942c22626032ea861f6fdeae315660cb28b9d1e",
        "df830c1592ded73e39f0b5783334a8169231573d266185a84eabfbc6baab58b2",
    ),
    ("grid:3x3", "iid:0.01,0.01"): (
        "74587dbbecb2716fad9b81835f583c50f3b46acb67fbbab61a40df6fba7726a5",
        "fd613a7a8330cb7b62581fadd9f154afd5ed25dc726f84a4b9a7677a79bff46f",
    ),
    ("grid:3x3", "iid:0.3,0.1"): (
        "8b06455a44e5bc7f0649fbdb24c9912310aa39f0b9f579645d228f7c5b3cbe8e",
        "7111b0c984f300aad7c049453d4d1812a8b7c0586b368783c0bca8e5f30eb342",
    ),
    ("grid:3x3", "iid:0,0"): (
        "e778b9d136d5156ee3dfe523cc2413ff5f74a2910b094bf066fc4b0be2f272a0",
        "f419388b7769d431c2c294ebbee427f6bdce9321f15c5e4272cf0aa0adf9a9a1",
    ),
    ("grid:3x3", "iid:1,1"): (
        "b733fa0479d4aba863d9336650b2666f1a48b18ad370692dc3545c514f921947",
        "96cdd0f5c66fe93aecb98b75f81a4d000597322e19c44a023f4b12e57fdcc742",
    ),
    ("grid:3x3", "mixture:mixture.json"): (
        "d161d1df55c26dfd1558738ac405b4e9f310141f994b3598eb0580242b6a305a",
        "182df088ccd41616c77db6392fd593e3b1d6891a543f9fc23f6afcfb95e9a459",
    ),
    ("rhg:2x2x2", "honest"): (
        "4336a438c38aa84877bbd283285ab1ef1978a78a07fe7f133ea944e132e40b2e",
        "54e77d21d11c9206ac7e2dc9753d6521c6b2298c0a3bd0bd6a15cae6bf14c9b6",
    ),
    ("rhg:2x2x2", "single-bad:1,1"): (
        "faea8c36d291a1723127ab27e942c22626032ea861f6fdeae315660cb28b9d1e",
        "df830c1592ded73e39f0b5783334a8169231573d266185a84eabfbc6baab58b2",
    ),
    ("rhg:2x2x2", "iid:0.01,0.01"): (
        "c28ba8161a930426afaf6a9c654b87a2c6e68e7ff18cce5c2154a1832eb57e9e",
        "3782fd1f98d6ddea881f32210e15a3802c0afc90d2513971bb5819d3970c6eb1",
    ),
    ("rhg:2x2x2", "iid:0.3,0.1"): (
        "9731cbe95147d9291f8eca182108bd16d420dc790251307763a11026f3775020",
        "7111b0c984f300aad7c049453d4d1812a8b7c0586b368783c0bca8e5f30eb342",
    ),
    ("rhg:2x2x2", "iid:0,0"): (
        "be3c18f97366f2582b659c79edbc10764c8f386a7977b35b7131138fd896f447",
        "f419388b7769d431c2c294ebbee427f6bdce9321f15c5e4272cf0aa0adf9a9a1",
    ),
    ("rhg:2x2x2", "iid:1,1"): (
        "9731cbe95147d9291f8eca182108bd16d420dc790251307763a11026f3775020",
        "96cdd0f5c66fe93aecb98b75f81a4d000597322e19c44a023f4b12e57fdcc742",
    ),
    ("rhg:2x2x2", "mixture:mixture.json"): (
        "d161d1df55c26dfd1558738ac405b4e9f310141f994b3598eb0580242b6a305a",
        "182df088ccd41616c77db6392fd593e3b1d6891a543f9fc23f6afcfb95e9a459",
    ),
}

# graph -> sha256 of, for seeds 0..4 one per line, the repr of the tuple of
# RECORDED_FIELDS of run_protocol(g, 2, IidPauli(0.3, 0.1), seed,
# record_outcomes=True). Captured before Transcript lost its
# observed_syndromes field, which the whole-transcript repr hashed before.
RECORDED_FIELDS = ("k", "seed", "partition", "classes", "accepted", "third_fidelity", "raw_outcomes")
RECORDED_GOLDEN = {
    "path:1": "20293d99fec2afdcc45f3ee8591e4416ca158b7ff904c1d634493a47b2e37acd",
    "path:5": "a85265de24c0e4094cbb148c33731efd42b59d28d4ef915c2733a6327697d181",
    "grid:3x3": "3b7097f3d23d9b9bcda57d47c6736b9d6b1d426f09ff01e58b490c2cc8e84ceb",
    "rhg:2x2x2": "7e0ae1ee2a34ef71aab8b31d122b6a17f85a6b702d0b835bb743a8789798c1f3",
}

# (graph, p_x, p_z) -> sha256 of repr(estimate(g, 2, IidPauli(p_x, p_z), 300, 5)).
ESTIMATE_GOLDEN = {
    ("path:1", 0.3, 0.1): "7ad62e27c4985476b50526d494325868e24acedc926ea5f7f00a23e8c9ea0e4e",
    ("path:1", 1.0, 0.5): "7de3afb06be81b28c1abddd827014188612444aea84f13c253b349e6f5b9d797",
    ("path:5", 0.05, 0.02): "2c3a054e757d2fd1ef6403d37216a480882cf7bd01b9a3ad43cd35e8b78ff343",
    ("grid:3x3", 0.01, 0.01): "392591095739bc4302a4b5cf8b896535f9698c5974057484183f7cbfa8f0fe58",
    ("grid:3x3", 0.05, 0.0): "ffbc3bfec29aa9a73a948cda3964980adaa214e479bfad07ac374f2b99aefd6e",
    ("grid:3x3", 0.0, 0.02): "c29fd1b4e6b804c2ec8edb265d99c5df3da5ec99bdb31d13ee9acb9cb423efcd",
    ("grid:3x3", 0.0, 1.0): "243b61ca70323601488041d307fca2262318772dba56dcb9be7262e8fcaec4f0",
    ("rhg:2x2x2", 0.01, 0.01): "03b9cd380bcfa1a6f99414faea47fa501ff1daef5ae9c014e6e4303ccfed2db6",
    ("rhg:2x2x2", 0.003, 0.0): "28cd0805cd0ad5ad9ebeecfa8d4ff9a70f084c002e023e4ad9f86e4f220fcb87",
    ("rhg:2x2x2", 0.0, 0.02): "7a18d1484f6a930812d59c56a72a89f1f28bd129fff1153e916c13ab97c17937",
    ("rhg:2x2x2", 0.0, 1.0): "243b61ca70323601488041d307fca2262318772dba56dcb9be7262e8fcaec4f0",
}

# sha256 of the CSV written by `verify-bounds --k-max 8 --out`.
BOUNDS_GOLDEN = "7662e119798a9905128aa7b6f3cf24556c1d100f069b3de0b7a1eea62e9f2794"
# The same at --k-max 40, whose rows carry integers of about 400 bits; the
# benchmark's exact-sweep workload pins the same hash.
BOUNDS_GOLDEN_K40 = "66e65b353050e0339bf3c4eadfd7333e8855ad43d5543bf32c7b190510d57fd8"

# graph -> sha256 of the stdout of `reduce --graph <graph>`, captured before
# mat_inverse, mat_mul and the column helpers of gf2 were rewritten (rhg:4x4x4,
# the benchmark's smallest lattice: before compute_reduction was built from one
# RREF of A). C and D are fixed by the basis rules, so any change to them shows
# up here.
REDUCE_GOLDEN = {
    "path:3": "427fedf0ef7d42b3ecc8ce3f51aa7313801c335d3f7866916f8767444e13de41",
    "path:6": "a022c71c0467e1193c9ec0d95f2e2c0b3b202f1391084bb988332ba32d8eefe8",
    "grid:3x3": "545a33630431e1999d28f11ee0e8c789e58c540ef542c3e0b9dbea98115b7add",
    "rhg:2x2x2": "d0cd74b49cc10d887a8958fd0fd88895dc40c53db75be290bf03cdc3abfab2d1",
    "rhg:3x3x3": "f5ebb9d149d03e29743d5e9afed9a47e7bb0d9dc2a1c3b7a2ae24590bc666c75",
    "rhg:4x4x4": "7f0e719c0e90ac506f45ebf40cca1b2eef0c1647f19c58e33e53d4b08aeb6548",
    "nb0.json": "22b5c3a34f7c882eda11946ac745f7a779dfe670331086c74d9a4e7dd76589cf",
    "nw0.json": "ce61003768da59cfd33d208dddd6f67d5539b7c9aa59f1eebef9d37cc281a3a5",
}

# The JSON graphs of REDUCE_GOLDEN: one empty side each.
REDUCE_DOCS = {
    "nb0.json": {"n_b": 0, "n_w": 3, "edges": []},
    "nw0.json": {"n_b": 3, "n_w": 0, "edges": []},
}

# sha256 of repr(compute_reduction(g)): C, D, n', C^-1, D^-1, C^T and D^T of
# lattices too large for a printout golden. Captured before the GF(2)
# elimination moved from lowest-bit to highest-bit pivots; test_reduction's
# reference construction calls gf2 itself, so these pin gf2 independently.
REDUCTION_GOLDEN = {
    "rhg:5x5x5": "645ae47dcc0f16f13ba65cd0bdb9c1335db29342b5ecb260e849a9318638637f",
    "rhg:6x6x6": "42c9bfed4f070f831e63b6638d8278b8b5416ba33cdd0402e020191aa78d655a",
    "grid:30x30": "b1a2958d7b887cf64ab31b512116a7f50e82ee80c202e58c7387905dad99f6e0",
    "path:512": "681f3d18ff715f338419eb44669b9d95acb14bf5317177381b0ca7039aef7a30",
}


# sha256 of the transcript_to_json lines of run_trials, and the estimate
# counts, for _explicit_model on grid:3x3 with k = 3, 300 trials, seed 21.
# No CLI adversary is Explicit, so SIMULATE_GOLDEN does not pin its draw.
EXPLICIT_GOLDEN = (
    "e16bd03b9eb5dbbbe3a1f17974bfa45e23c069a69fc93188915c5654665077ff",
    {"trials": 300, "accepted": 38, "accepted_clean": 19},
)


# sha256 of the transcript_lines of a mixture on grid:3x3 with k = 11 (23
# copies, up to 5 bad ones), 300 trials, seed 8, and the estimate counts.
# 23 copies pass sample's 21-entry set size, so this pins its set branch,
# which no 2k+1 <= 21 golden reaches. Captured while the kernel still called
# random.Random.sample and random.Random.shuffle.
MIXTURE_K11_GOLDEN = (
    "a41fe50bcdbbee166061bb38c7ae79e04bb33be17d332a5bf04f26fd8e3b0374",
    {"trials": 300, "accepted": 37, "accepted_clean": 35},
)
MIXTURE_K11 = ("1/3", {(0, 0): "1/4", (2, 1): "1/4", (3, 2): "1/2"},
               {(0, 0): "1/5", (1, 0): "2/5", (2, 2): "2/5"})


def _explicit_model(g, k):
    """Up to four atoms per copy, zero-probability atoms first, in the middle
    and last, and one copy whose totals stop 1e-10 short of 1."""
    zero_b, zero_w = BitVector.zero(g.n_b), BitVector.zero(g.n_w)
    clean = BlockPauli(zero_b, zero_w, zero_b, zero_w)
    x_b = BlockPauli(BitVector.unit(g.n_b, 0), zero_w, zero_b, zero_w)
    z_w = BlockPauli(zero_b, zero_w, zero_b, BitVector.unit(g.n_w, 1))
    z_both = BlockPauli(zero_b, zero_w, BitVector.unit(g.n_b, 2), BitVector.unit(g.n_w, 0))
    rows = (
        ((0.5, clean), (0.0, z_both), (0.3, x_b), (0.2, z_w)),
        ((0.1, x_b), (0.1, z_w), (0.1, z_both), (0.7, clean)),
        ((0.0, x_b), (0.25, z_both), (0.75, clean)),
        ((0.6, clean), (0.4, z_both), (0.0, x_b)),
        ((1 / 3, z_w), (1 / 3, clean), (1 / 3, x_b), (0.0, z_both)),
        ((0.3, x_b), (0.3, z_w), (0.3999999999, clean)),
    )
    return Explicit(tuple(rows[j % len(rows)] for j in range(2 * k + 1)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate_hashes(tmp_path, monkeypatch, graph: str, adversary: str) -> tuple[str, str]:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixture.json").write_text(json.dumps(MIXTURE))
    argv = ["simulate", "--graph", graph, "--k", "2", "--trials", "200", "--seed", "3",
            "--adversary", adversary, "--outdir", "out"]
    assert main(argv) == 0
    out = tmp_path / "out"
    return (_sha((out / "transcripts.jsonl").read_bytes()), _sha((out / "summary.csv").read_bytes()))


def recorded_hash(graph: str) -> str:
    g = parse_graph(graph)
    transcripts = (run_protocol(g, 2, IidPauli(0.3, 0.1), seed, record_outcomes=True)
                   for seed in range(5))
    lines = [repr(tuple(getattr(t, f) for f in RECORDED_FIELDS)) for t in transcripts]
    return _sha("\n".join(lines).encode())


def estimate_hash(graph: str, p_x: float, p_z: float) -> str:
    return _sha(repr(estimate(parse_graph(graph), 2, IidPauli(p_x, p_z), 300, 5)).encode())


@pytest.mark.parametrize("graph, adversary", sorted(SIMULATE_GOLDEN))
def test_simulate_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys, graph, adversary):
    assert simulate_hashes(tmp_path, monkeypatch, graph, adversary) == SIMULATE_GOLDEN[graph, adversary]


@pytest.mark.parametrize("graph", sorted(RECORDED_GOLDEN))
def test_recorded_outcomes_match_golden_hashes(graph):
    # sample_outcomes draws from the trial RNG after the attack draw and the
    # shuffle, so this also pins the RNG state the attack draw leaves behind.
    assert recorded_hash(graph) == RECORDED_GOLDEN[graph]


@pytest.mark.parametrize("graph, p_x, p_z", sorted(ESTIMATE_GOLDEN))
def test_estimate_matches_golden_hashes(graph, p_x, p_z):
    assert estimate_hash(graph, p_x, p_z) == ESTIMATE_GOLDEN[graph, p_x, p_z]


def test_explicit_draw_matches_golden_hash():
    g = parse_graph("grid:3x3")
    model = _explicit_model(g, 3)
    lines = [transcript_to_json(t, i) for i, t in enumerate(run_trials(g, 3, model, 300, 21))]
    assert (_sha(("\n".join(lines) + "\n").encode()), estimate(g, 3, model, 300, 21).counts) == EXPLICIT_GOLDEN


def test_mixture_past_the_sample_set_size_matches_golden_hash():
    g = parse_graph("grid:3x3")
    model = ClassMixture.from_weights(*MIXTURE_K11)
    lines = [line for line, _, _ in transcript_lines(g, 11, model, 300, 8)]
    assert (_sha(("\n".join(lines) + "\n").encode()), estimate(g, 11, model, 300, 8).counts) == MIXTURE_K11_GOLDEN


def test_verify_bounds_matches_golden_hash(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "8", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == BOUNDS_GOLDEN


def test_verify_bounds_at_benchmark_size_matches_golden_hash(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["verify-bounds", "--k-max", "40", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 49360 rows, 0 violations\n"
    assert _sha(out.read_bytes()) == BOUNDS_GOLDEN_K40


@pytest.mark.parametrize("graph", sorted(REDUCE_GOLDEN))
def test_reduce_output_matches_golden_hash(tmp_path, monkeypatch, capsys, graph):
    # Relative file names, since the printout starts with the graph spec.
    monkeypatch.chdir(tmp_path)
    if graph in REDUCE_DOCS:
        (tmp_path / graph).write_text(json.dumps(REDUCE_DOCS[graph]))
    assert main(["reduce", "--graph", graph]) == 0
    assert _sha(capsys.readouterr().out.encode()) == REDUCE_GOLDEN[graph]


@pytest.mark.parametrize("graph", sorted(REDUCTION_GOLDEN))
def test_reduction_matches_golden_hash(graph):
    assert _sha(repr(compute_reduction(parse_graph(graph))).encode()) == REDUCTION_GOLDEN[graph]
