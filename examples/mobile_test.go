package examples_test

import (
	"fmt"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/workload"
)

// Example_mobile reproduces §V-D in miniature: the same flash backend behind UFS
// vs NVMe on a handheld-class host. NVMe's rich queues and faster link win,
// but the low-power host CPU cannot always generate enough I/O to exploit
// them — and the SSD-side power tells the other half of the story.
func Example_mobile() {
	fmt.Println("Handheld vs general computing (paper §V-D, Fig. 13)")
	fmt.Println()

	type outcome struct {
		name  string
		bw    float64
		cpuW  float64
		dramW float64
		nandW float64
		instr float64
	}
	var results []outcome

	for _, dev := range []string{"ufs", "mobile-nvme"} {
		d, err := config.Device(dev)
		if err != nil {
			panic(err)
		}
		sys, err := core.NewSystem(config.MobileSystem(d))
		if err != nil {
			panic(err)
		}
		if err := sys.Precondition(32); err != nil {
			panic(err)
		}
		gen, err := workload.NewFIO(workload.RandRead, 4096, sys.VolumeBytes(), 3)
		if err != nil {
			panic(err)
		}
		// Power and instructions are what the measured run added, not
		// what preconditioning spent before it.
		base := sys.Counters()
		res, err := sys.Run(gen, core.RunConfig{Requests: 3000, IODepth: 32})
		if err != nil {
			panic(err)
		}
		r := outcome{name: sys.Protocol().Kind.String(), bw: res.BandwidthMBps()}
		r.cpuW, r.dramW, r.nandW = sys.WindowWatts(base, res.Elapsed())
		r.instr = float64(sys.Counters().Since(base).Firmware.Total()) / 1e6
		results = append(results, r)
	}

	fmt.Printf("%-8s %10s %8s %8s %8s %12s\n", "iface", "MB/s", "cpu W", "dram W", "nand W", "fw Minstr")
	for _, r := range results {
		fmt.Printf("%-8s %10.1f %8.2f %8.2f %8.2f %12.1f\n",
			r.name, r.bw, r.cpuW, r.dramW, r.nandW, r.instr)
	}
	fmt.Println()
	fmt.Printf("NVMe/UFS bandwidth ratio: %.2fx (paper: up to 1.81x)\n", results[1].bw/results[0].bw)
	fmt.Println("The embedded CPU dominates SSD power — the paper's argument that mobile")
	fmt.Println("NVMe needs hardware automation to fit handheld power budgets.")

	// Output:
	// Handheld vs general computing (paper §V-D, Fig. 13)
	//
	// iface          MB/s    cpu W   dram W   nand W    fw Minstr
	// ufs           158.0     0.41     0.40     0.02          3.5
	// nvme          158.0     0.43     0.40     0.02          5.0
	//
	// NVMe/UFS bandwidth ratio: 1.00x (paper: up to 1.81x)
	// The embedded CPU dominates SSD power — the paper's argument that mobile
	// NVMe needs hardware automation to fit handheld power budgets.
}
