// Package config provides the device and platform presets the evaluation
// uses: the reverse-engineered Intel 750 of Table I, the Samsung 850 PRO
// (h-type), Z-SSD and 983 DCT prototypes (s-type) of §V-B, a UFS mobile
// device, and the OCSSD variant of §V-E.
//
// Geometries keep the paper's parallelism (channels, ways, planes) exact
// but scale blocks-per-plane down so steady-state experiments fit in
// laptop-scale memory and wall-clock; the OP ratio, page sizes and all
// timing parameters are unscaled, so bandwidth/latency behavior is
// preserved while raw capacity shrinks.
package config

import (
	"fmt"

	"amber/internal/cpu"
	"amber/internal/dram"
	"amber/internal/ftl"
	"amber/internal/host"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/proto"
	"amber/internal/sim"

	"amber/internal/core"
)

// defaultDevCPU is the 3-core ARMv8 embedded complex of §V-A.
func defaultDevCPU() cpu.Config {
	return cpu.Config{Cores: 3, FrequencyMHz: 500, IPC: 1.0}
}

// defaultFlashPower returns representative per-operation NAND energies.
func defaultFlashPower() nand.Power {
	return nand.Power{
		ReadEnergyJ:        55e-9,
		ProgEnergyJ:        480e-9,
		EraseEnergyJ:       1800e-9,
		XferEnergyJPerByte: 1.2e-12,
		LeakageWPerDie:     2.5e-3,
	}
}

// Intel750 returns the Table I device: 12 channels x 5 packages, 2 planes,
// MLC with tPROG 820.62/2250 us, tR 59.975/104.956 us, tERASE 3 ms, ONFi 3
// (333 MT/s), 1 GB internal DDR3L, NVMe 1.2.1, 20% OP.
func Intel750() core.DeviceConfig {
	return core.DeviceConfig{
		Name: "intel750",
		Geometry: nand.Geometry{
			Channels:           12,
			PackagesPerChannel: 5,
			DiesPerPackage:     1,
			PlanesPerDie:       2,
			BlocksPerPlane:     48,  // scaled from 512 (capacity only)
			PagesPerBlock:      128, // scaled from 512 (capacity only)
			PageSize:           8192,
		},
		Flash: nand.Timing{
			ReadFast:   sim.FromMicroseconds(59.975),
			ReadSlow:   sim.FromMicroseconds(104.956),
			ProgFast:   sim.FromMicroseconds(820.62),
			ProgSlow:   sim.FromMicroseconds(2250),
			Erase:      sim.FromMicroseconds(3000),
			BusMTps:    333,
			CmdCycles:  sim.FromNanoseconds(120),
			ISPPJitter: 0.05,
		},
		FlashPower:         defaultFlashPower(),
		Cell:               nand.MLC,
		DRAM:               dram.DDR3L1600(1 << 30),
		DRAMPower:          dram.DefaultPower(),
		CPU:                defaultDevCPU(),
		CPUPower:           cpu.DefaultPower(),
		OPRatio:            0.20,
		GCPolicy:           ftl.Greedy,
		PartialUpdate:      true,
		CacheAssoc:         icl.FullyAssoc,
		CacheRepl:          icl.LRU,
		ReadaheadThreshold: 2,
		ReadaheadLines:     4,
		Protocol:           proto.NVMe121(),
		Seed:               750,
	}
}

// Samsung850Pro returns the §V-B h-type device: MLC over 8 interconnects,
// SATA 3.0.
func Samsung850Pro() core.DeviceConfig {
	d := Intel750()
	d.Name = "850pro"
	d.Geometry = nand.Geometry{
		Channels:           8,
		PackagesPerChannel: 4,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     48,
		PagesPerBlock:      128,
		PageSize:           8192,
	}
	d.Flash.ReadFast = sim.FromMicroseconds(45)
	d.Flash.ReadSlow = sim.FromMicroseconds(90)
	d.Flash.ProgFast = sim.FromMicroseconds(700)
	d.Flash.ProgSlow = sim.FromMicroseconds(1900)
	d.DRAM = dram.DDR3L1600(512 << 20)
	d.Protocol = proto.SATA30()
	d.Seed = 850
	return d
}

// ZSSD returns the §V-B Z-SSD prototype: new low-latency flash with 3 us
// reads and 100 us writes [61] behind NVMe on a wider PCIe link.
func ZSSD() core.DeviceConfig {
	d := Intel750()
	d.Name = "zssd"
	d.Geometry = nand.Geometry{
		Channels:           8,
		PackagesPerChannel: 2,
		DiesPerPackage:     2,
		PlanesPerDie:       2,
		BlocksPerPlane:     48,
		PagesPerBlock:      128,
		PageSize:           8192,
	}
	d.Cell = nand.SLC
	d.Flash.ReadFast = sim.FromMicroseconds(3)
	d.Flash.ReadSlow = sim.FromMicroseconds(3)
	d.Flash.ProgFast = sim.FromMicroseconds(100)
	d.Flash.ProgSlow = sim.FromMicroseconds(100)
	d.Flash.Erase = sim.FromMicroseconds(1000)
	d.Flash.BusMTps = 667 // high-speed toggle interface
	d.Flash.ISPPJitter = 0.02
	d.CPU.FrequencyMHz = 800 // faster controller for the ultra-low-latency part
	d.Protocol = proto.NVMe121()
	d.Protocol.LinkBytesPerSec = 4.4e9 // PCIe Gen3 x8-class device link
	d.Seed = 963
	return d
}

// Samsung983DCT returns the §V-B 983 DCT prototype: like the 850 PRO's
// backend but behind NVMe with multi-stream support.
func Samsung983DCT() core.DeviceConfig {
	d := Samsung850Pro()
	d.Name = "983dct"
	d.Geometry.Channels = 8
	d.Geometry.PackagesPerChannel = 4
	d.Flash.ProgFast = sim.FromMicroseconds(600)
	d.Flash.ProgSlow = sim.FromMicroseconds(1600)
	d.Protocol = proto.NVMe121()
	d.DRAM = dram.DDR3L1600(1 << 30)
	d.Seed = 983
	return d
}

// MobileUFS returns the §V-D handheld device: a smaller backend behind
// UFS 2.1, as embedded in the Jetson TX2-class platform.
func MobileUFS() core.DeviceConfig {
	d := Intel750()
	d.Name = "mobile-ufs"
	d.Geometry = nand.Geometry{
		Channels:           4,
		PackagesPerChannel: 2,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     48,
		PagesPerBlock:      128,
		PageSize:           8192,
	}
	d.DRAM = dram.DDR3L1600(256 << 20)
	d.CPU.FrequencyMHz = 400
	d.Protocol = proto.UFS21()
	d.Seed = 21
	return d
}

// MobileNVMe returns the same mobile backend behind NVMe — the §V-D
// comparison device ("NVMe attached ARM core").
func MobileNVMe() core.DeviceConfig {
	d := MobileUFS()
	d.Name = "mobile-nvme"
	d.Protocol = proto.NVMe121()
	return d
}

// OCSSD returns the §V-E passive device: the Intel 750 backend exposed
// through OCSSD 2.0 with pblk on the host.
func OCSSD() core.DeviceConfig {
	d := Intel750()
	d.Name = "ocssd"
	d.Protocol = proto.OCSSD20()
	d.Passive = true
	return d
}

// Devices returns the named device presets.
func Devices() map[string]func() core.DeviceConfig {
	return map[string]func() core.DeviceConfig{
		"intel750":    Intel750,
		"850pro":      Samsung850Pro,
		"zssd":        ZSSD,
		"983dct":      Samsung983DCT,
		"ufs":         MobileUFS,
		"mobile-nvme": MobileNVMe,
		"ocssd":       OCSSD,
	}
}

// Device returns the preset with the given name.
func Device(name string) (core.DeviceConfig, error) {
	f, ok := Devices()[name]
	if !ok {
		return core.DeviceConfig{}, fmt.Errorf("config: unknown device %q", name)
	}
	return f(), nil
}

// PCSystem returns a general-purpose platform (Table II PC) around the
// device.
func PCSystem(d core.DeviceConfig) core.SystemConfig {
	return core.SystemConfig{Device: d, Host: host.PC()}
}

// MobileSystem returns the handheld platform (Table II mobile) around the
// device.
func MobileSystem(d core.DeviceConfig) core.SystemConfig {
	return core.SystemConfig{Device: d, Host: host.Mobile()}
}

// FaultProfile returns a named deterministic fault-injection preset.
// The seed fixes the fault schedule: the same seed with the same request
// stream draws identical faults.
//
//	off     — no injection (the zero FaultConfig)
//	light   — rare failures on a healthy device, wear from 3000 erases
//	heavy   — an aging device: frequent failures, wear from 500 erases
//	wearout — an end-of-life device that degrades to read-only quickly
func FaultProfile(name string, seed uint64) (nand.FaultConfig, error) {
	switch name {
	case "off", "":
		return nand.FaultConfig{}, nil
	case "light":
		return nand.FaultConfig{
			Seed:            seed,
			ProgramFailProb: 2e-4,
			EraseFailProb:   5e-4,
			ReadFailProb:    2e-4,
			WearEraseLimit:  3000,
			MaxReadRetries:  3,
		}, nil
	case "heavy":
		return nand.FaultConfig{
			Seed:            seed,
			ProgramFailProb: 2e-3,
			EraseFailProb:   5e-3,
			ReadFailProb:    1e-3,
			WearEraseLimit:  500,
			MaxReadRetries:  3,
		}, nil
	case "wearout":
		return nand.FaultConfig{
			Seed:            seed,
			ProgramFailProb: 0.02,
			EraseFailProb:   0.05,
			ReadFailProb:    0.01,
			WearEraseLimit:  50,
			MaxReadRetries:  2,
		}, nil
	default:
		return nand.FaultConfig{}, fmt.Errorf("config: unknown fault profile %q (want off, light, heavy or wearout)", name)
	}
}

// SmallTestDevice returns a deliberately tiny device for fast unit and
// integration tests: full firmware stack, data tracking on.
func SmallTestDevice() core.DeviceConfig {
	d := Intel750()
	d.Name = "test-small"
	d.Geometry = nand.Geometry{
		Channels:           2,
		PackagesPerChannel: 2,
		DiesPerPackage:     1,
		PlanesPerDie:       1,
		BlocksPerPlane:     16,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
	d.DRAM = dram.DDR3L1600(8 << 20)
	d.CacheLines = 8
	d.TrackData = true
	d.ReadaheadThreshold = 2
	d.ReadaheadLines = 2
	d.Seed = 7
	return d
}
