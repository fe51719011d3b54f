"""DCTCP: ECN-fraction-proportional window reduction.

Switch ports mark packets when the instantaneous queue exceeds a threshold
``K``; the receiver echoes marks; the sender keeps an EWMA ``alpha`` of the
marked fraction per window and cuts ``cwnd`` by ``alpha / 2`` once per
window that saw marks (Alizadeh et al., SIGCOMM 2010).
"""

from __future__ import annotations

from repro.phynet.transport.base import Transport

#: EWMA gain ``g`` from the DCTCP paper.
DCTCP_GAIN = 1.0 / 16.0


class Dctcp(Transport):
    """DCTCP congestion control on top of the Reno machinery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.alpha = 0.0
        self._acked_total = 0
        self._acked_marked = 0
        self._window_end = 0

    def _on_ecn_feedback(self, ecn_echo: bool, ack_seq: int) -> None:
        advanced = max(ack_seq - self.snd_una, 0)
        self._acked_total += max(advanced, 1 if ecn_echo else 0)
        if ecn_echo:
            self._acked_marked += max(advanced, 1)
        if ack_seq >= self._window_end:
            # One RTT's worth of feedback is in: update alpha, react.
            if self._acked_total > 0:
                fraction = self._acked_marked / self._acked_total
                self.alpha = ((1.0 - DCTCP_GAIN) * self.alpha
                              + DCTCP_GAIN * fraction)
                if self._acked_marked > 0:
                    self.cwnd = max(1.0,
                                    self.cwnd * (1.0 - self.alpha / 2.0))
                    self.ssthresh = max(self.cwnd, 2.0)
            self._acked_total = 0
            self._acked_marked = 0
            # The next observation window ends at the highest segment
            # actually transmitted (not merely queued by the app).
            self._window_end = self.highest_sent + 1
