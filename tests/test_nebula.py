"""Verification contract rules: thresholds, windows, commit/reveal.

Expected signatures and hashes in the acceptance-matrix tests come from the
independent reference codec, never from the production code under test.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from swapgate.chain import BlockCtx, BlockRef, EventKind
from swapgate.crypto import HashMacScheme
from swapgate.encoding import Direction, PayloadEntry, payload_hash
from swapgate.errors import (
    DuplicatePulse,
    FutureHeight,
    InsufficientSignatures,
    InvalidSignature,
    StaleHeight,
    UnknownPulse,
)
from swapgate.nebula import (
    NebulaState,
    OracleRoster,
    default_threshold,
    pulse_message,
)

from reference_codec import (
    ref_payload_hash,
    ref_pulse_message,
    ref_signature,
    ref_sha256,
)

SECRETS = [ref_sha256(b"nebula-test-oracle-%d" % i) for i in range(5)]
ROSTER = OracleRoster(keys=tuple(SECRETS), threshold=4)
CHAIN_ID = 1
DATA_HASH = ref_sha256(b"some payload bytes")
WINDOW = 10


def make_nebula(window=WINDOW):
    return NebulaState(CHAIN_ID, ROSTER, window)


def ctx_at(height):
    return BlockCtx(BlockRef(CHAIN_ID, "main", height, b"\xcc" * 32), {})


def ref_sigs(indices, data_hash=DATA_HASH, height=0, chain=CHAIN_ID):
    message = ref_pulse_message(data_hash, height, chain)
    return [(i, ref_signature(SECRETS[i], message)) for i in indices]


def test_default_threshold_formula():
    assert default_threshold(5) == 4      # floor(10/3) + 1
    assert default_threshold(3) == 3
    assert default_threshold(4) == 3
    assert default_threshold(7) == 5


def test_pulse_message_matches_reference():
    assert pulse_message(DATA_HASH, 42, CHAIN_ID) == \
        ref_pulse_message(DATA_HASH, 42, CHAIN_ID)


def test_acceptance_matrix_threshold_boundary():
    """Exactly 4-of-5 accepts; 3-of-5 rejects; 5-of-5 accepts. The
    PulseAccepted event names the signers."""
    for count, ok in ((3, False), (4, True), (5, True)):
        nebula = make_nebula()
        sigs = ref_sigs(range(count))
        if ok:
            ctx = ctx_at(1)
            pulse_id = nebula.submit_pulse(ctx, DATA_HASH, 0, sigs)
            assert pulse_id == 1
            [event] = ctx.events
            assert event.kind == EventKind.PULSE_ACCEPTED
            assert event.payload["signers"] == list(range(count))
        else:
            with pytest.raises(InsufficientSignatures):
                nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs)


def test_brute_force_signer_counter_agrees():
    """Enumerate all signer subsets: acceptance iff distinct valid >= 4."""
    for size in range(6):
        for subset in itertools.combinations(range(5), size):
            nebula = make_nebula()
            sigs = ref_sigs(subset)
            if len(subset) >= ROSTER.threshold:
                assert nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs) == 1
            else:
                with pytest.raises(InsufficientSignatures):
                    nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs)


def test_duplicate_signer_counts_once():
    sigs = ref_sigs([0, 1, 2]) + ref_sigs([2])
    nebula = make_nebula()
    with pytest.raises(InsufficientSignatures):
        nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs)


def test_one_invalid_signature_rejects_whole_pulse():
    """Even with 4 valid signatures present, a single bad one rejects."""
    sigs = ref_sigs(range(4))
    bad = (4, b"\x00" * 32)
    nebula = make_nebula()
    with pytest.raises(InvalidSignature):
        nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs + [bad])


def test_unknown_roster_index_rejected():
    sigs = ref_sigs(range(4)) + [(9, b"\x00" * 32)]
    nebula = make_nebula()
    with pytest.raises(InvalidSignature):
        nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs)


def test_signature_order_independent():
    for perm in itertools.permutations(range(4)):
        nebula = make_nebula()
        sigs = ref_sigs(perm)
        assert nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, sigs) == 1


def test_window_boundaries_exact():
    """declared = current - W accepted; current - (W+1) stale; future rejected."""
    current = 20
    ok_sigs = ref_sigs(range(4), height=current - WINDOW)
    nebula = make_nebula()
    assert nebula.submit_pulse(ctx_at(current), DATA_HASH, current - WINDOW,
                               ok_sigs) == 1

    nebula = make_nebula()
    with pytest.raises(StaleHeight):
        nebula.submit_pulse(ctx_at(current), DATA_HASH,
                            current - (WINDOW + 1),
                            ref_sigs(range(4), height=current - (WINDOW + 1)))

    nebula = make_nebula()
    with pytest.raises(FutureHeight):
        nebula.submit_pulse(ctx_at(current), DATA_HASH, current + 1,
                            ref_sigs(range(4), height=current + 1))


def test_duplicate_unconsumed_hash_rejected():
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, ref_sigs(range(4)))
    with pytest.raises(DuplicatePulse):
        nebula.submit_pulse(ctx_at(1), DATA_HASH, 1,
                            ref_sigs(range(4), height=1))


def test_hash_can_reregister_after_consumption():
    """Consuming a pulse closes its hash; the count stays, so the next
    pulse on the same hash gets a fresh id."""
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32,
                            "T", 0, b"\x02" * 20, 5)]
    digest = payload_hash(entries)
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), digest, 0, ref_sigs(range(4), digest))
    assert (nebula.pulse_count, nebula.pulses) == (1, {digest: 1})
    nebula.submit_send_data(ctx_at(1), entries, router=lambda e: None)
    assert (nebula.pulse_count, nebula.pulses) == (1, {})
    assert nebula.submit_pulse(ctx_at(2), digest, 1,
                               ref_sigs(range(4), digest, height=1)) == 2
    assert (nebula.pulse_count, nebula.pulses) == (2, {digest: 2})


def test_send_data_routes_on_hash_match():
    entries = [
        PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x05" * 32, "T", 0,
                     b"\x06" * 20, 11),
        PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x07" * 32, "T", 0,
                     b"\x08" * 20, 22),
    ]
    digest = payload_hash(entries)
    assert digest == ref_payload_hash(
        [(int(e.direction), e.swap_id, e.symbol, e.origin_chain, e.receiver,
          e.amount) for e in entries])
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), digest, 0, ref_sigs(range(5), digest))
    routed = []
    outcomes = nebula.submit_send_data(ctx_at(1), entries,
                                       router=routed.append)
    assert outcomes == ["ok", "ok"]
    assert routed == entries
    assert nebula.pulses == {}


def test_send_data_one_flipped_bit_rejected():
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x0a" * 32,
                            "T", 0, b"\x0b" * 20, 9)]
    digest = payload_hash(entries)
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), digest, 0, ref_sigs(range(4), digest))
    tampered = [PayloadEntry(entries[0].direction, entries[0].swap_id,
                             entries[0].symbol, entries[0].origin_chain,
                             entries[0].receiver, entries[0].amount ^ 1)]
    routed = []
    with pytest.raises(UnknownPulse):
        nebula.submit_send_data(ctx_at(1), tampered, router=routed.append)
    assert routed == []
    assert nebula.pulses == {digest: 1}


def test_send_data_one_shot():
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x0c" * 32,
                            "T", 0, b"\x0d" * 20, 3)]
    digest = payload_hash(entries)
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), digest, 0, ref_sigs(range(4), digest))
    nebula.submit_send_data(ctx_at(1), entries, router=lambda e: None)
    routed = []
    with pytest.raises(UnknownPulse):
        nebula.submit_send_data(ctx_at(1), entries, router=routed.append)
    assert routed == []
    assert nebula.pulses == {}


def test_send_data_unknown_pulse():
    """A payload whose hash no pulse committed to is rejected, by name."""
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x0e" * 32,
                            "T", 0, b"\x0f" * 20, 4)]
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), DATA_HASH, 0, ref_sigs(range(4)))
    with pytest.raises(UnknownPulse, match=payload_hash(entries).hex()):
        nebula.submit_send_data(ctx_at(1), entries, router=lambda e: None)
    assert nebula.pulses == {DATA_HASH: 1}


def test_entry_failures_do_not_roll_back_siblings():
    entries = [
        PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x11" * 32, "T", 0,
                     b"\x12" * 20, 1),
        PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x13" * 32, "T", 0,
                     b"\x14" * 20, 2),
    ]
    digest = payload_hash(entries)
    nebula = make_nebula()
    nebula.submit_pulse(ctx_at(1), digest, 0, ref_sigs(range(4), digest))

    executed = []

    def router(entry):
        if entry.amount == 1:
            from swapgate.errors import DuplicateExecution
            raise DuplicateExecution("replayed")
        executed.append(entry)

    outcomes = nebula.submit_send_data(ctx_at(1), entries, router=router)
    assert outcomes == ["DuplicateExecution", "ok"]
    assert len(executed) == 1


# --- signature scheme -------------------------------------------------------


def test_sign_verify_roundtrip():
    scheme = HashMacScheme()
    secret = SECRETS[0]
    message = b"attest this"
    sig = scheme.sign(secret, message)
    assert sig == ref_signature(secret, message)
    assert scheme.verify(secret, message, sig)


def test_verify_wrong_key_fails():
    scheme = HashMacScheme()
    sig = scheme.sign(SECRETS[0], b"msg")
    assert not scheme.verify(SECRETS[1], b"msg", sig)


@given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
def test_verify_flipped_bit_fails(message, bit):
    scheme = HashMacScheme()
    sig = scheme.sign(SECRETS[0], message)
    flipped = bytearray(message)
    flipped[0] ^= 1 << bit
    assert not scheme.verify(SECRETS[0], bytes(flipped), sig)


def test_signature_binds_height_and_chain():
    """A signature for one (height, chain) never verifies for another."""
    scheme = HashMacScheme()
    sig = scheme.sign(SECRETS[0], pulse_message(DATA_HASH, 5, 1))
    assert not scheme.verify(SECRETS[0], pulse_message(DATA_HASH, 6, 1), sig)
    assert not scheme.verify(SECRETS[0], pulse_message(DATA_HASH, 5, 0), sig)
