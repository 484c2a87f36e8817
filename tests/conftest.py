import numpy as np
import pytest

from chargeflow.harmonic import build_almost_harmonic


@pytest.fixture(scope="session", autouse=True)
def _cache_dir(tmp_path_factory):
    import os

    os.environ["CHARGEFLOW_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="session")
def almost_table():
    """Shared eps=0.1, lam=1, d=3 tabulation (construction takes ~0.5 s)."""
    return build_almost_harmonic(3, 0.1, 1.0)


@pytest.fixture(scope="session")
def almost_table_fine():
    """The eps=0.05 variant used by the acceptance suite."""
    return build_almost_harmonic(3, 0.05, 1.0)


# the kernel ids the README lists
README_KERNEL_IDS = (
    "sign", "gauss:c=1.0", "explh:lambda=1,d=3", "poly:l=3",
    "almost:eps=0.1,lambda=1,d=3", "exp1d:lambda=1", "coulomb:d=3", "log",
)


def separated_points(rng, n, d, scale=3.0, min_sep=1.0):
    """Random configuration with all pairwise distances >= min_sep."""
    while True:
        pts = rng.standard_normal((n, d)) * scale
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= min_sep:
            return pts
