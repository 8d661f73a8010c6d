"""Wrapping an attack back into a stegosystem on its host scheme's channel."""

import random

import pytest

from subvertlab import (
    Bits,
    InvalidHistoryError,
    StegoParams,
    WrongDocumentCountError,
    asa_from_stego,
    chi2_warden,
    encode_all,
    encode_schedule,
    estimate_unrel_reboot,
    randpad_scheme,
    rejsam_system,
    repeat_warden,
    run_enc_asa_dist,
    run_ss_cha_dist,
    ses_channel,
    stego_from_asa,
    substream,
    wrapped_warden_to_watchdog,
)

KAPPA = 16


def wrapped_setup():
    ses = randpad_scheme(r=8, kappa=KAPPA, ml=8)
    inner = rejsam_system(StegoParams(ml=4, s=16, outl=24, kappa=KAPPA))
    asa = asa_from_stego(inner, ses)
    return ses, asa, stego_from_asa(asa, ses)


def _no_draw():
    pytest.fail("the wrapped encoder must not consult the channel draw")


def test_wrapped_system_shape():
    ses, asa, wrapped = wrapped_setup()
    ell = asa.outl
    p = wrapped.params
    assert (p.ml, p.s, p.outl, p.kappa) == (asa.ml, 1, 2 * ell + 1, asa.key_bits)
    assert wrapped.system_id == f"asa-wrapped:{asa.attack_id}"
    # key and message positions are hiding-free and declared exchangeable
    rng = random.Random(0)
    prefix = (Bits.random(ses.key_bits, rng),) + tuple(
        Bits.random(ses.ml, rng) for _ in range(ell)
    )
    assert wrapped.transparent_at(())
    assert wrapped.transparent_at(prefix[:ell])
    # length ell + 1 means the next document is an encryption position
    assert not wrapped.transparent_at(prefix)


def test_encoder_case_split_is_seed_coupled():
    ses, asa, wrapped = wrapped_setup()
    ell = asa.outl
    rng = substream(2, 0, "wrapped")
    twin = substream(2, 0, "wrapped")
    ak, am = wrapped.gen(rng), Bits.random(wrapped.params.ml, rng)
    wrapped.gen(twin), Bits.random(wrapped.params.ml, twin)

    key_doc, sigma = wrapped.enc(ak, am, (), None, draw=_no_draw, rng=rng)
    assert key_doc == ses.gen(twin)
    msg_doc, sigma = wrapped.enc(ak, am, (key_doc,), sigma, draw=_no_draw, rng=rng)
    assert msg_doc == Bits.random(ses.ml, twin)

    full = (key_doc,) + (msg_doc,) * ell
    doc, _ = wrapped.enc(ak, am, full, sigma, draw=_no_draw, rng=rng)
    ref, _ = asa.enc(ak, am, key_doc, msg_doc, sigma, twin)
    assert doc == ref

    stray = (Bits.random(ses.key_bits + 1, rng),) + (msg_doc,) * ell
    with pytest.raises(InvalidHistoryError):
        wrapped.enc(ak, am, stray, None, draw=_no_draw, rng=rng)


def test_decoder_reads_the_trailing_documents():
    ses, asa, wrapped = wrapped_setup()
    ell = asa.outl
    rng = random.Random(4)
    ak = wrapped.gen(rng)
    docs = [Bits.random(ses.cl, rng) for _ in range(wrapped.params.outl)]
    assert wrapped.dec(ak, docs) == asa.ext(ak, docs[ell + 1 :])
    with pytest.raises(WrongDocumentCountError):
        wrapped.dec(ak, docs[:-1])


def test_roundtrip_over_the_host_channel():
    ses, asa, wrapped = wrapped_setup()
    channel = ses_channel(ses, asa.outl)
    recovered = 0
    for i in range(30):
        rng = substream(5, i, "run")
        ak = wrapped.gen(rng)
        am = Bits.random(wrapped.params.ml, rng)
        docs = encode_all(wrapped, ak, am, (), channel, rng)
        assert len(docs) == wrapped.params.outl
        recovered += wrapped.dec(ak, docs) == am
    assert recovered >= 27


def test_reboots_cost_nothing():
    # everything the encoder needs is in the history, so wiping sigma at
    # arbitrary boundaries reproduces the uninterrupted stream bit for bit
    ses, asa, wrapped = wrapped_setup()
    channel = ses_channel(ses, asa.outl)
    outl = wrapped.params.outl
    rng = substream(6, 0, "setup")
    ak, am = wrapped.gen(rng), Bits.random(wrapped.params.ml, rng)
    streams = [
        encode_schedule(wrapped, ak, am, schedule, channel, substream(6, 0, "run"))
        for schedule in ([outl], [1] * outl, [9, 1, 30, 9])
    ]
    assert streams[0] == streams[1] == streams[2]

    report = estimate_unrel_reboot(wrapped, channel, trials=25, seed=6)
    assert report.p_hat >= 0.85
    assert report.config["schedules"] == "random-compositions"


def test_warden_replayed_as_watchdog_decides_identically():
    ses, asa, wrapped = wrapped_setup()
    channel = ses_channel(ses, asa.outl)
    for warden, trials in ((repeat_warden(), 150), (chi2_warden(queries=8), 40)):
        wd = wrapped_warden_to_watchdog(warden, ses, asa.outl)
        assert wd.name == f"wrapped:{warden.name}"
        on_channel = run_ss_cha_dist(wrapped, channel, warden, trials, seed=8)
        on_attack = run_enc_asa_dist(asa, ses, wd, trials, seed=8)
        assert on_channel.decisions == on_attack.decisions
