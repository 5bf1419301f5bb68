import numpy as np
import pytest

from slabreg import dictionary as fd
from slabreg import moments as dm
from slabreg.errors import ConfigError, DataError, NumericalError


def test_exact_trig_identity():
    mom = dm.exact_moments(fd.Trigonometric(4))
    np.testing.assert_array_equal(mom.gram, np.eye(4))
    assert mom.provenance == "Exact"


def test_exact_haar_identity():
    np.testing.assert_array_equal(dm.exact_moments(fd.Haar(1)).gram, np.eye(4))


def test_exact_rejects_kernel_kind():
    family = fd.MultiscaleGaussian([[0.5]], [1.0])
    with pytest.raises(ConfigError, match="monte_carlo"):
        dm.exact_moments(family)


def test_montecarlo_single_sample_rank_one():
    family = fd.Trigonometric(3)
    mom = dm.monte_carlo_moments(family, dm.uniform_sampler(), 1, seed=4)
    x = np.random.default_rng(np.random.SeedSequence(4)).uniform(0, 1, size=(1, 1))
    phi = family.evaluate(x)[0]
    np.testing.assert_allclose(mom.gram, np.outer(phi, phi), atol=1e-15)


def test_montecarlo_trig_clt_tolerance():
    mom = dm.monte_carlo_moments(fd.Trigonometric(3), dm.uniform_sampler(), 10**6, seed=0)
    assert np.max(np.abs(mom.gram - np.eye(3))) <= 5e-3


def test_montecarlo_two_seed_concordance():
    family = fd.MultiscaleGaussian([[0.2], [0.8]], [2.0])
    a = dm.monte_carlo_moments(family, dm.uniform_sampler(), 10**5, seed=1)
    b = dm.monte_carlo_moments(family, dm.uniform_sampler(), 10**5, seed=2)
    assert np.max(np.abs(a.gram - b.gram)) <= 2e-2


def test_montecarlo_deterministic_given_seed():
    family = fd.Trigonometric(3)
    a = dm.monte_carlo_moments(family, dm.uniform_sampler(), 5000, seed=9)
    b = dm.monte_carlo_moments(family, dm.uniform_sampler(), 5000, seed=9)
    np.testing.assert_array_equal(a.gram, b.gram)


@pytest.mark.parametrize(
    "family",
    [
        fd.Trigonometric(9),
        fd.MultiscaleGaussian([[0.1], [0.4], [0.8]], [2.0, 30.0]),
        fd.KernelPCA(np.linspace(0.0, 1.0, 12), {"kind": "gaussian", "gamma": 5.0}, 6),
    ],
    ids=lambda family: family.kind,
)
def test_montecarlo_gram_is_exactly_symmetric_without_averaging(family):
    # Each batch's product is one syrk, so the Gram needs no 0.5 * (G + G.T).
    gram = dm.monte_carlo_moments(family, dm.uniform_sampler(), 2 * dm.MC_BATCH + 17, seed=3).gram
    assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()
    assert gram.tobytes() == dm._symmetrize(gram).tobytes()


def test_montecarlo_variance_halves_when_samples_double():
    family = fd.Trigonometric(3)
    entry = []
    for M in (2000, 4000):
        vals = [
            dm.monte_carlo_moments(family, dm.uniform_sampler(), M, seed=s).gram[0, 1]
            for s in range(30)
        ]
        entry.append(np.var(vals, ddof=1))
    ratio = entry[0] / entry[1]
    assert 1.0 < ratio < 4.0


def test_empirical_test_constant_feature():
    mom = dm.empirical_test_moments(np.ones((2, 1)))
    np.testing.assert_array_equal(mom.gram, [[1.0]])
    assert mom.provenance == "EmpiricalTest"


def test_empirical_test_orthogonal_indicators():
    test = np.array([[1.0, 0.0], [0.0, 1.0]])
    mom = dm.empirical_test_moments(test)
    np.testing.assert_array_equal(mom.gram, np.diag([0.5, 0.5]))


def test_empirical_test_brute_force_oracle():
    rng = np.random.default_rng(12)
    n, k, m = 4, 2, 3
    feats = rng.normal(size=((k + 1) * n, m))
    mom = dm.empirical_test_moments(feats[n:])
    brute = np.zeros((m, m))
    for j in range(m):
        for h in range(m):
            brute[j, h] = sum(feats[i, j] * feats[i, h] for i in range(n, (k + 1) * n)) / (k * n)
    np.testing.assert_allclose(mom.gram, brute, atol=1e-12)


def test_empirical_test_permutation_invariant_rows():
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(12, 2))
    mom = dm.empirical_test_moments(feats[4:])
    perm = rng.permutation(8)
    shuffled = feats.copy()
    shuffled[4:] = feats[4:][perm]
    mom2 = dm.empirical_test_moments(shuffled[4:])
    np.testing.assert_allclose(mom.gram, mom2.gram, atol=1e-12)


def test_empirical_test_requires_test_block():
    # k = 0: a sample without test rows has an empty test block
    with pytest.raises(ConfigError, match="nonempty test block"):
        dm.empirical_test_moments(np.empty((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (2, 1), (4, 2)])
def test_empirical_test_rejects_nonfinite_entry(bad, where):
    test = np.random.default_rng(5).normal(size=(5, 3))
    test[where] = bad
    with pytest.raises(NumericalError, match="NaN or Inf"):
        dm.empirical_test_moments(test)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 250, 399])
def test_empirical_test_rejects_nonfinite_entry_in_any_row_block(bad, row):
    # 400 x 600 is read in blocks of 218 rows; the dense Gram raised the same
    test = np.random.default_rng(6).normal(size=(400, 600))
    test[row, 17] = bad
    with pytest.raises(NumericalError) as dense:
        dm.DesignMoments(test.T @ test / 400, "EmpiricalTest")
    with pytest.raises(NumericalError) as raised:
        dm.empirical_test_moments(test)
    assert str(raised.value) == str(dense.value) == "gram matrix contains NaN or Inf"


def test_user_gram_roundtrip(tmp_path):
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    path = tmp_path / "gram.csv"
    np.savetxt(path, g, delimiter=",")
    mom = dm.load_gram_csv(path)
    np.testing.assert_allclose(mom.gram, g, atol=1e-12)
    assert mom.provenance == "UserSupplied"


def test_user_gram_rejects_asymmetric(tmp_path):
    path = tmp_path / "gram.csv"
    np.savetxt(path, np.array([[1.0, 0.2], [0.5, 1.0]]), delimiter=",")
    with pytest.raises(ConfigError, match="symmetric"):
        dm.load_gram_csv(path)


def test_user_gram_rejects_indefinite(tmp_path):
    path = tmp_path / "gram.csv"
    np.savetxt(path, np.array([[1.0, 2.0], [2.0, 1.0]]), delimiter=",")
    with pytest.raises(NumericalError, match="indefinite"):
        dm.load_gram_csv(path)


def test_user_gram_repairs_tiny_negative_eigenvalue(tmp_path):
    # eigenvalues 1 and -2.5e-9: inside the repairable band
    e = 2.5e-9
    g = np.array([[0.5 - e / 2, -0.5 - e / 2], [-0.5 - e / 2, 0.5 - e / 2]])
    path = tmp_path / "gram.csv"
    with open(path, "w") as fh:
        for row in g:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    mom = dm.load_gram_csv(path)
    assert np.linalg.eigvalsh(mom.gram)[0] >= -1e-15


def test_user_gram_malformed_number_names_row(tmp_path):
    path = tmp_path / "gram.csv"
    path.write_text("1.0,0.0\n0.0,oops\n")
    with pytest.raises(DataError, match="row 2"):
        dm.load_gram_csv(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("1.0,0.0\n\n0.0,abc\n", "row 3: malformed number 'abc'"),
        ("1.0,nan\nnan,1.0\n", "row 1: non-finite value"),
        ("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,1.0\n", "row 3: expected 3 fields, got 2"),
    ],
    ids=["malformed", "nan", "short-row"],
)
def test_user_gram_errors_name_the_file_line_as_data_files_do(tmp_path, text, message):
    # A Gram file is read as the training and test files are: an error names
    # the file and the line of the first bad row, past blank lines.
    path = tmp_path / "gram.csv"
    path.write_text(text)
    with pytest.raises(DataError) as raised:
        dm.load_gram_csv(path)
    assert str(raised.value) == f"{path}: {message}"


def test_degenerate_diag_flagged():
    test = np.array([[0.0, 1.0], [0.0, 1.0]])
    mom = dm.empirical_test_moments(test)
    assert mom.degenerate.tolist() == [True, False]


def _identity_with_tiny_off_diagonal():
    g = np.eye(4)
    g[0, 2] = 1e-300
    return g


def test_identity_structure_of_exact_moments():
    assert dm.exact_moments(fd.Trigonometric(5)).identity
    assert dm.exact_moments(fd.Haar(2)).identity


def test_exact_moments_answer_from_their_structure():
    mom = dm.exact_moments(fd.Haar(3))
    dense = dm.DesignMoments(np.eye(16), "Exact")
    assert mom.m == dense.m == 16
    assert mom.diag.tobytes() == dense.diag.tobytes()
    assert mom.degenerate.tolist() == dense.degenerate.tolist()
    assert mom.identity and dense.identity


def test_exact_moments_store_no_gram(peak_bytes):
    def build():
        mom = dm.exact_moments(fd.Trigonometric(4096))
        assert mom.identity and mom.m == 4096 and not mom.degenerate.any()

    peak = peak_bytes(build)
    assert peak < 2**20  # a dense identity is 128 MB


def test_moments_compare_and_hash_by_identity(peak_bytes):
    a, b = dm.DesignMoments(np.eye(2), "x"), dm.DesignMoments(np.eye(2), "x")
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1
    mom = dm.exact_moments(fd.Trigonometric(4096))
    peak = peak_bytes(lambda: mom == mom and mom != dm.exact_moments(fd.Trigonometric(4096)))
    assert peak < 2**20  # comparing through ``gram`` builds a 128 MB identity


def test_empirical_test_gram_equals_symmetrized_product_bitwise():
    rng = np.random.default_rng(17)
    for n, k, m in ((7, 1, 5), (33, 2, 64), (300, 1, 257)):
        feats = rng.normal(size=((k + 1) * n, m)) * rng.uniform(0.1, 10.0, size=m)
        test = feats[n:]
        want = dm._symmetrize(test.T @ test / (k * n))
        got = dm.empirical_test_moments(test).gram
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "gram,identity",
    [
        (np.eye(4), True),
        (2.0 * np.eye(4), False),
        (_identity_with_tiny_off_diagonal(), False),
        (np.diag([1.0, 1.0, 0.0, 1.0]), False),
        (np.ones((1, 1)), True),
    ],
)
def test_identity_structure_is_exact(gram, identity):
    assert dm.DesignMoments(gram, "UserSupplied").identity is identity


def test_identity_structure_of_user_gram_file(tmp_path):
    path = tmp_path / "gram.csv"
    for gram, identity in ((np.eye(3), True), (_identity_with_tiny_off_diagonal(), False)):
        np.savetxt(path, gram, delimiter=",")
        assert dm.load_gram_csv(path).identity is identity


def _test_blocks():
    """Test blocks of every layout: (name, block); the 300 x 260 ones are
    large enough for BLAS to block the product."""
    rng = np.random.default_rng(23)
    for kn, m in ((9, 4), (300, 260)):
        feats = rng.normal(size=(2 * kn, m + 3)) * rng.uniform(0.1, 10.0, size=m + 3)
        yield f"C-{kn}x{m}", np.ascontiguousarray(feats[kn:, :m])
        yield f"F-{kn}x{m}", np.asfortranarray(feats[kn:, :m])
        yield f"row-strided-{kn}x{m}", feats[1::2, :m]
        yield f"column-sliced-{kn}x{m}", feats[kn:, 3:]


TEST_BLOCKS = dict(_test_blocks())


@pytest.mark.parametrize("name", TEST_BLOCKS)
def test_empirical_test_gram_is_exactly_symmetric_for_every_layout(name):
    test = TEST_BLOCKS[name]
    got = dm.empirical_test_moments(test).gram
    assert got.tobytes() == got.T.tobytes()
    assert got.tobytes() == dm._symmetrize(test.T @ test / test.shape[0]).tobytes()


@pytest.mark.parametrize("rows,m", [(9, 4), (300, 260), (1100, 260), (5, 1)])
def test_empirical_test_diagonal_is_the_whole_block_reduction_bitwise(rows, m):
    # read in row blocks of STATS_BLOCK_CELLS // m rows: 1100 x 260 in three
    test = np.random.default_rng(29).normal(size=(rows, m)) * np.linspace(0.1, 10.0, m)
    mom = dm.empirical_test_moments(test)
    assert mom.diag.tobytes() == (np.add.reduce(test**2, axis=0) / rows).tobytes()
    np.testing.assert_allclose(mom.diag, np.diag(test.T @ test / rows), rtol=1e-13, atol=0.0)


def test_identity_moments_repr_builds_no_gram(peak_bytes):
    mom = dm.exact_moments(fd.Trigonometric(2048))
    text = []
    peak = peak_bytes(lambda: text.append(repr(mom)))
    assert peak < 2**20  # the dense identity is 32 MB
    assert text == ["IdentityMoments(provenance='Exact')"]
