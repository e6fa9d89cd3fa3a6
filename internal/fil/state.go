package fil

import (
	"amber/internal/ftl"
	"amber/internal/snap"
)

// planTag computes the OOB logical tag stamped on a plan write: the FTL's
// forward-map index of the logical sub-page (LSPN × planes + sub, matching
// ftl's fwdIndex), or the reserved parity tag for RAIN parity programs.
// Mount-time recovery rebuilds the forward map from these stamps alone.
func planTag(op *ftl.Op, planes int64) int64 {
	if op.Parity {
		return ftl.ParityTag
	}
	return op.LSPN*planes + int64(op.Loc.Sub)
}

// PowerLoss models the cut hitting the FIL: all per-plan scratch state is
// firmware RAM and is dropped, and the certified-plan binding disarms —
// the issuing FTL is gone with the RAM, so no outstanding certificate can
// be honored. The caller re-arms with AcceptCertified after mount-time
// recovery hands it a fresh FTL.
func (f *FIL) PowerLoss() {
	f.disarm()
	clear(f.recs[:cap(f.recs)])
	f.links = f.links[:0]
	f.sbTimes = f.sbTimes[:0]
	f.readBufN = 0
}

// state is the FIL's image layout: the counters and the certified-chain
// position. The issuer pointer itself is identity, not state — the image
// records only whether the binding was armed.
func (f *FIL) state(c *snap.Codec, armed *bool) error {
	snap.U(c, &f.stats.Reads)
	snap.U(c, &f.stats.Programs)
	snap.U(c, &f.stats.Erases)
	snap.U(c, &f.stats.PlanCount)
	snap.U(c, &f.stats.DepStalls)
	snap.U(c, &f.stats.CertifiedPlans)
	snap.U(c, &f.stats.PlanFaults)
	snap.U(c, &f.stats.CertifiedReads)
	snap.U(c, &f.stats.CertDisarms)
	c.Bool(armed)
	snap.U(c, &f.certNext)
	snap.U(c, &f.certEpoch)
	c.Bool(&f.forceWalk)
	return c.Err()
}

// EncodeState serializes the FIL's functional state.
func (f *FIL) EncodeState(e *snap.Enc) {
	armed := f.certIssuer != nil
	_ = f.state(snap.Encoding(e), &armed) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState. issuer is the
// (restored) FTL whose certificates this FIL honored at snapshot time; it
// is bound only if the binding was armed then, at the exact chain position
// the snapshot recorded — so a restored device honors or walks precisely
// the plans the original would have.
func (f *FIL) DecodeState(d *snap.Dec, issuer *ftl.FTL) error {
	var armed bool
	if err := f.state(snap.Decoding(d), &armed); err != nil {
		return err
	}
	if armed {
		f.certIssuer = issuer
	} else {
		f.certIssuer = nil
	}
	return nil
}
