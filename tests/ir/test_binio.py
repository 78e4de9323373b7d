"""Binary IR (.nir) round-trip and robustness tests."""

import os

import pytest

from repro import ir
from repro.ir.builder import IRBuilder
from repro.ir import binio
from repro.ir.binio import (
    BinFormatError,
    BinTruncatedError,
    BinVersionError,
    is_binary_ir,
    read_module,
)
from repro.ir.binwrite import write_module

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _roundtrip(module):
    data = write_module(module)
    clone = read_module(data)
    assert ir.print_module(clone) == ir.print_module(module)
    return clone


def test_roundtrip_counted_loop():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    clone = _roundtrip(module)
    ir.verify_module(clone)


def test_roundtrip_all_workloads_byte_identical():
    from repro.workloads import registry

    for workload in registry.all_workloads():
        module = workload.compile()
        data = write_module(module)
        clone = read_module(data)
        assert ir.print_module(clone) == ir.print_module(module), (
            workload.name
        )
        # a second encode of the decoded module is byte-stable
        assert write_module(clone) == data, workload.name


def test_roundtrip_preserves_naming_state():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    clone = _roundtrip(module)
    fn = module.functions["sum"]
    fn2 = clone.functions["sum"]
    assert fn2._used_names == fn._used_names
    assert fn2._name_counter == fn._name_counter
    # fresh names allocate identically after a round trip
    block = fn.blocks[0]
    block2 = fn2.blocks[0]
    builder = IRBuilder(block)
    builder2 = IRBuilder(block2)
    a = builder.add(ir.const_int(1), ir.const_int(2))
    b = builder2.add(ir.const_int(1), ir.const_int(2))
    assert a.name == b.name


def test_roundtrip_post_helix_pipeline():
    """Transformed modules (task metadata, added functions/globals)
    survive the binary format bit-for-bit."""
    from repro.tools.pipeline import helix_pipeline
    from repro.workloads import get

    module = helix_pipeline([get("blackscholes").source])
    clone = _roundtrip(module)
    assert clone.metadata == module.metadata
    for name, fn in module.functions.items():
        assert clone.functions[name].metadata == fn.metadata
        assert clone.functions[name].attributes == fn.attributes


def test_roundtrip_interp_identical():
    from repro.interp.interp import Interpreter
    from repro.workloads import get

    module = get("crc32").compile()
    clone = _roundtrip(module)
    a = Interpreter(module).run()
    b = Interpreter(clone).run()
    assert a.output == b.output
    assert a.steps == b.steps
    assert a.cycles == b.cycles


def test_is_binary_ir_sniffs_magic():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    data = write_module(module)
    assert is_binary_ir(data)
    assert not is_binary_ir(ir.print_module(module).encode())
    assert not is_binary_ir(b"")
    assert not is_binary_ir(b"\x7fN")


def test_golden_fixture_still_decodes():
    """The checked-in .nir fixture from the version-2 writer decodes to
    the checked-in textual IR, and the writer still writes exactly it —
    guards accidental format drift."""
    with open(os.path.join(GOLDEN_DIR, "count_loop.nir"), "rb") as handle:
        data = handle.read()
    with open(os.path.join(GOLDEN_DIR, "count_loop.ir")) as handle:
        text = handle.read()
    module = read_module(data)
    assert ir.print_module(module) == text
    assert write_module(ir.parse_module(text)) == data


def test_wrong_magic_raises_version_error():
    with pytest.raises(BinVersionError):
        read_module(b"NOPE" + b"\x00" * 32)


def _as_version_1(data: bytes) -> bytes:
    """``data`` with the header of the retired version-1 format (which
    also carried a per-instruction metadata section)."""
    assert data[4] == binio.FORMAT_VERSION == 2
    return data[:4] + b"\x01" + data[5:]


def test_version_1_file_raises_version_error():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    with pytest.raises(BinVersionError, match="version 1"):
        read_module(_as_version_1(write_module(module)))


def test_store_evicts_a_format_1_entry(tmp_path):
    import hashlib
    import json

    from repro.cache.store import ArtifactStore
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    store = ArtifactStore(str(tmp_path))
    text = ir.print_module(module)
    key = store.module_key(text)
    store.publish_module(key, module, text)
    entry = store.entry_dir(key)
    with open(os.path.join(entry, "module.nir"), "rb") as handle:
        old = _as_version_1(handle.read())
    with open(os.path.join(entry, "module.nir"), "wb") as handle:
        handle.write(old)
    with open(os.path.join(entry, "meta.json")) as handle:
        meta = json.load(handle)
    meta.update(format=1, nir_sha256=hashlib.sha256(old).hexdigest())
    with open(os.path.join(entry, "meta.json"), "w") as handle:
        json.dump(meta, handle)
    assert store.load_module(key) is None
    assert not store.has_entry(key)


def test_future_version_raises_version_error():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    data = bytearray(write_module(module))
    assert data[4] == binio.FORMAT_VERSION
    data[4] = 0x7F  # a future format version
    with pytest.raises(BinVersionError):
        read_module(bytes(data))


def test_truncated_raises_structured_error():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    data = write_module(module)
    for cut in (5, len(data) // 3, len(data) // 2, len(data) - 1):
        with pytest.raises(BinFormatError):
            read_module(data[:cut])
    with pytest.raises(BinTruncatedError):
        read_module(data[: len(data) - 1])


def test_corrupted_body_raises_structured_error():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    data = write_module(module)
    corrupted = 0
    for pos in range(8, len(data), 7):
        mutated = bytearray(data)
        mutated[pos] ^= 0xFF
        try:
            clone = read_module(bytes(mutated))
            # Decoding may still succeed (e.g. a flipped name byte);
            # the result must at least be a Module.
            assert isinstance(clone, ir.Module)
        except BinFormatError:
            corrupted += 1
    # most single-byte flips must surface as structured errors,
    # never as stray KeyError/IndexError/etc.
    assert corrupted > 0


def test_trailing_garbage_rejected():
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    data = write_module(module)
    with pytest.raises(BinFormatError):
        read_module(data + b"\x00")


def test_write_read_module_file(tmp_path):
    from tests.conftest import build_count_loop

    module, _fn, _values = build_count_loop()
    path = tmp_path / ("m" + binio.EXTENSION)
    ir.write_module_file(module, str(path))
    clone = binio.read_module_file(str(path))
    assert ir.print_module(clone) == ir.print_module(module)
