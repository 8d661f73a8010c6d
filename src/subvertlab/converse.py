"""The reverse direction: a stegosystem out of any substitution attack.

An attack that hides ml bits inside ell subverted ciphertexts also hides
them inside the channel of the encryption scheme it subverts. The wrapped
encoder plays one full session of that channel: it emits the key document
and the ell uniform message documents itself (those carry no hidden
information and match the channel exactly), then replaces every encryption
position with the attack's subverted ciphertext. 2*ell + 1 documents carry
the whole hidden message; the decoder reads the trailing ell.

wrapped_warden_to_watchdog is the matching reduction adapter: a warden
against the wrapped system, replayed as a watchdog against the bare attack,
sees an identical transcript under coupled seeds.
"""

from __future__ import annotations

from .asa import SubstitutionAttack
from .bits import Bits
from .channels import _cycle_input, channel_sample as _channel_sample, ses_channel
from .errors import InvalidHistoryError, WrongDocumentCountError
from .schemes import SymmetricEncryptionScheme
from .stego import StegoParams, StegoSystem

__all__ = ["stego_from_asa", "wrapped_warden_to_watchdog"]


def stego_from_asa(asa: SubstitutionAttack, ses: SymmetricEncryptionScheme) -> StegoSystem:
    """Wrap `asa` as a stegosystem on ses_channel(ses, asa.outl).

    The encoder reads the session key and messages back out of the history,
    so a reboot (state reset to None) costs nothing; decoding needs exactly
    2*asa.outl + 1 documents and extracts from the last asa.outl.
    """
    ell = asa.outl
    params = StegoParams(ml=asa.ml, s=1, outl=2 * ell + 1, kappa=asa.key_bits)

    def enc(ak, am, history, sigma, *, draw, rng):
        n = len(history)
        if n == 0:
            return ses.gen(rng), sigma
        if n <= ell:
            return Bits.random(ses.ml, rng), sigma
        if len(history[0]) != ses.key_bits:
            raise InvalidHistoryError("history does not start with a session key")
        k = history[0]
        m = _cycle_input(history, ell)
        return asa.enc(ak, am, k, m, sigma, rng)

    def dec(ak, docs):
        if len(docs) != params.outl:
            raise WrongDocumentCountError(f"expected {params.outl} documents, got {len(docs)}")
        return asa.ext(ak, list(docs[ell + 1 :]))

    return StegoSystem(
        system_id=f"asa-wrapped:{asa.attack_id}",
        params=params,
        gen=asa.gen,
        enc=enc,
        dec=dec,
        transparent_at=lambda h: len(h) <= ell,
    )


def wrapped_warden_to_watchdog(warden, ses: SymmetricEncryptionScheme, ell: int):
    """Reduction adapter: a wrapped-system warden replayed as an attack watchdog.

    Key and message positions are answered from the shared public streams
    (they are identical in both worlds); every encryption position is
    forwarded to the watchdog's own challenge oracle with the key and
    cycling message read from the warden's history; that oracle keeps the
    encoder state.
    """
    from .games import Adversary

    channel = ses_channel(ses, ell)

    class _View:
        def __init__(self, parent):
            self._parent = parent
            self.channel = channel
            self.stego_ml = parent.asa_ml
            self.sim_rng = parent.sim_rng

        def ch(self, am, history):
            n = len(history)
            if n == 0:
                return ses.gen(self.sim_rng("oracle-prefix"))
            if n <= ell:
                return Bits.random(ses.ml, self.sim_rng("oracle-prefix"))
            return self._parent.ch(am, history[0], _cycle_input(history, ell))

        def channel_sample(self, history):
            return _channel_sample(channel, history, self.sim_rng("channel"))

    def strategy(oracles, rng):
        return warden.strategy(_View(oracles), rng)

    return Adversary(
        name=f"wrapped:{warden.name}",
        strategy=strategy,
    )
