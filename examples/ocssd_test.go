package examples_test

import (
	"fmt"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// Example_ocssd reproduces §V-E in miniature: active storage (NVMe SSD with its
// firmware on-device) versus passive storage (Open-Channel SSD with pblk
// running the FTL on the host). Passive storage can win on small I/O but
// consumes most of the host's cores.
func Example_ocssd() {
	fmt.Println("Active vs passive storage (paper §V-E, Fig. 15)")
	fmt.Println()
	fmt.Printf("%-10s %10s %14s %14s %12s\n", "device", "MB/s", "host CPU util", "host mem MB", "avg us")

	for _, dev := range []string{"intel750", "ocssd"} {
		d, err := config.Device(dev)
		if err != nil {
			panic(err)
		}
		sys, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			panic(err)
		}
		if err := sys.Precondition(32); err != nil {
			panic(err)
		}
		gen, err := workload.NewFIO(workload.RandWrite, 4096, sys.VolumeBytes(), 9)
		if err != nil {
			panic(err)
		}
		runMem := int64(280 << 20)
		if sys.Config().Device.Passive {
			runMem = 120 << 20
		}
		busy0 := sys.Host.CPU.BusyTime()
		res, err := sys.Run(gen, core.RunConfig{
			Requests: 3000, IODepth: 32,
			SampleEvery: sim.Millisecond,
			RunMemBytes: runMem,
		})
		if err != nil {
			panic(err)
		}
		util := float64(sys.Host.CPU.BusyTime()-busy0) / float64(res.Elapsed()) / 4
		fmt.Printf("%-10s %10.1f %13.1f%% %14.0f %12.1f\n",
			dev, res.BandwidthMBps(), util*100,
			res.HostMemMB.Max(), res.AvgLatencyUs())
	}
	fmt.Println()
	fmt.Println("pblk+LightNVM run the FTL, cache and GC on host cores — the CPU and")
	fmt.Println("memory cost the paper identifies as passive storage's open problem.")

	// Output:
	// Active vs passive storage (paper §V-E, Fig. 15)
	//
	// device           MB/s  host CPU util    host mem MB       avg us
	// intel750        171.4           3.9%            310        759.5
	// ocssd           125.6           8.0%            198       1038.6
	//
	// pblk+LightNVM run the FTL, cache and GC on host cores — the CPU and
	// memory cost the paper identifies as passive storage's open problem.
}
