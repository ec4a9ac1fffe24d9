import pytest

from spreademb import skipgram


@pytest.fixture
def cold_kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory, with no kernel loaded in this process."""
    cache = tmp_path / "kernel-cache"
    monkeypatch.setattr(skipgram, "KERNEL_CACHE_DIR", cache)
    skipgram._sgns_epoch.cache_clear()
    yield cache
    skipgram._sgns_epoch.cache_clear()
