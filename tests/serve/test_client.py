"""The blocking serve client's connection handling (no server needed)."""

import gc
import warnings

import pytest

from repro.serve.client import ServeClient


class TestConnect:
    def test_missing_socket_raises_and_closes_the_socket(self, tmp_path):
        client = ServeClient(socket_path=str(tmp_path / "absent.sock"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                client.get_json("/readyz")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
        assert client._sock is None
