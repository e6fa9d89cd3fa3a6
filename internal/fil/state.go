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

// EncodeState serializes the FIL's functional state: the counters and the
// certified-chain position. The issuer pointer itself is identity, not
// state — DecodeState rebinds it.
func (f *FIL) EncodeState(e *snap.Enc) {
	e.U64(f.stats.Reads)
	e.U64(f.stats.Programs)
	e.U64(f.stats.Erases)
	e.U64(f.stats.PlanCount)
	e.U64(f.stats.DepStalls)
	e.U64(f.stats.CertifiedPlans)
	e.U64(f.stats.PlanFaults)
	e.U64(f.stats.CertifiedReads)
	e.U64(f.stats.CertDisarms)
	e.Bool(f.certIssuer != nil)
	e.U64(f.certNext)
	e.U64(f.certEpoch)
	e.Bool(f.forceWalk)
}

// DecodeState reinstalls a state captured by EncodeState. issuer is the
// (restored) FTL whose certificates this FIL honored at snapshot time; it
// is bound only if the binding was armed then, at the exact chain position
// the snapshot recorded — so a restored device honors or walks precisely
// the plans the original would have.
func (f *FIL) DecodeState(d *snap.Dec, issuer *ftl.FTL) error {
	f.stats.Reads = d.U64()
	f.stats.Programs = d.U64()
	f.stats.Erases = d.U64()
	f.stats.PlanCount = d.U64()
	f.stats.DepStalls = d.U64()
	f.stats.CertifiedPlans = d.U64()
	f.stats.PlanFaults = d.U64()
	f.stats.CertifiedReads = d.U64()
	f.stats.CertDisarms = d.U64()
	armed := d.Bool()
	f.certNext = d.U64()
	f.certEpoch = d.U64()
	f.forceWalk = d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if armed {
		f.certIssuer = issuer
	} else {
		f.certIssuer = nil
	}
	return nil
}
