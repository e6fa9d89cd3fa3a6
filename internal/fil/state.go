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
	clear(f.readDone[:cap(f.readDone)])
	clear(f.readBuf[:cap(f.readBuf)])
	f.planNo++
	f.readBufN = 0
}

// State walks the FIL's image: the counters and the certified-chain
// position. The issuer pointer itself is identity, not state — the image
// records only whether the binding was armed. Decoding binds issuer, the
// (restored) FTL whose certificates this FIL honored at snapshot time, only
// if the binding was armed then, at the exact chain position the snapshot
// recorded — so a restored device honors or walks precisely the plans the
// original would have. Encoding ignores issuer.
func (f *FIL) State(c *snap.Codec, issuer *ftl.FTL) error {
	armed := f.certIssuer != nil
	snap.U(c, &f.stats.Reads)
	snap.U(c, &f.stats.Programs)
	snap.U(c, &f.stats.Erases)
	snap.U(c, &f.stats.PlanCount)
	snap.U(c, &f.stats.DepStalls)
	snap.U(c, &f.stats.CertifiedPlans)
	snap.U(c, &f.stats.PlanFaults)
	snap.U(c, &f.stats.CertifiedReads)
	snap.U(c, &f.stats.CertDisarms)
	c.Bool(&armed)
	snap.U(c, &f.certNext)
	snap.U(c, &f.certEpoch)
	if c.Decoding() && c.Err() == nil {
		f.certIssuer = nil
		if armed {
			f.certIssuer = issuer
		}
	}
	return c.Err()
}
