import pytest

from spreademb import kernels


@pytest.fixture
def cold_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory, with no kernel loaded in this process."""
    cache = tmp_path / "kernel-cache"
    monkeypatch.setattr(kernels, "KERNEL_CACHE_DIR", cache)
    kernels.library.cache_clear()
    yield cache
    kernels.library.cache_clear()
