package proto

import "testing"

func TestAllKindsValidate(t *testing.T) {
	for k, p := range map[Kind]Params{SATA: SATA30(), UFS: UFS21(), NVMe: NVMe121(), OCSSD: OCSSD20()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", k, err)
		}
		if p.Kind != k {
			t.Errorf("%v: kind mismatch", k)
		}
	}
}

func TestHTypeQueueLimits(t *testing.T) {
	// The architectural contrast of §II-A: 32-entry command lists vs rich
	// queues.
	if SATA30().QueueDepthLimit != 32 || UFS21().QueueDepthLimit != 32 {
		t.Fatal("h-type must have 32-entry queues")
	}
	if NVMe121().QueueDepthLimit != 65536 {
		t.Fatal("NVMe must expose rich queues")
	}
}

func TestEffectiveQueueDepth(t *testing.T) {
	s := SATA30()
	if s.EffectiveQueueDepth(64) != 32 {
		t.Fatal("SATA should clamp depth 64 to 32")
	}
	if s.EffectiveQueueDepth(8) != 8 {
		t.Fatal("depth below limit should pass through")
	}
	if s.EffectiveQueueDepth(0) != 1 {
		t.Fatal("zero depth should clamp to 1")
	}
	n := NVMe121()
	if n.EffectiveQueueDepth(256) != 256 {
		t.Fatal("NVMe should not clamp 256")
	}
}

func TestLinkOrdering(t *testing.T) {
	// NVMe's PCIe Gen3 x4 must outrun SATA 6Gbps and UFS HS-G3.
	if NVMe121().LinkBytesPerSec <= SATA30().LinkBytesPerSec {
		t.Fatal("NVMe link must be faster than SATA")
	}
	if NVMe121().LinkBytesPerSec <= UFS21().LinkBytesPerSec {
		t.Fatal("NVMe link must be faster than UFS")
	}
}

func TestHostControllerCopyFlags(t *testing.T) {
	if !SATA30().HostControllerCopy || !UFS21().HostControllerCopy {
		t.Fatal("h-type protocols stage through the host controller")
	}
	if NVMe121().HostControllerCopy || OCSSD20().HostControllerCopy {
		t.Fatal("s-type protocols DMA directly")
	}
}

func TestNVMeFirmwareHeavierThanHType(t *testing.T) {
	// Fig. 13c: the NVMe queue/doorbell path executes far more firmware
	// instructions per command than UFS.
	nvme := NVMe121()
	ufs := UFS21()
	nvmeInstr := nvme.ParseMix.Total() + nvme.QueueMix.Total()
	ufsInstr := ufs.ParseMix.Total() + ufs.QueueMix.Total()
	if float64(nvmeInstr) < 2*float64(ufsInstr) {
		t.Fatalf("NVMe per-command firmware (%d) should be well above UFS (%d)", nvmeInstr, ufsInstr)
	}
}

func TestTransferTimes(t *testing.T) {
	n := NVMe121()
	if n.CmdFetchTime() == 0 || n.CompletionTime() == 0 {
		t.Fatal("command transfer times must be nonzero")
	}
	if n.CmdFetchTime() <= n.CompletionTime() {
		t.Fatal("64B SQ fetch should outweigh 16B CQ entry")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := NVMe121()
	p.QueueDepthLimit = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero queue depth accepted")
	}
	p = NVMe121()
	p.LinkBytesPerSec = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero link accepted")
	}
	p = NVMe121()
	p.CmdFetchBytes = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero fetch size accepted")
	}
}

func TestStrings(t *testing.T) {
	if SATA.String() != "sata" || OCSSD.String() != "ocssd" {
		t.Fatal("kind names wrong")
	}
}
