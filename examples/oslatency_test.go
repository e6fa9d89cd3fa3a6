package examples_test

import (
	"fmt"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/host"
	"amber/internal/workload"
)

// Example_oslatency reproduces the §V-C observation in miniature: the same SSD
// under the same workload delivers very different user-level performance
// depending on the kernel's I/O scheduler — Linux 4.4's CFQ cannot keep a
// modern SSD's queues fed, while 4.14's BFQ can.
func Example_oslatency() {
	fmt.Println("OS impact on storage performance (paper §V-C, Fig. 12)")
	fmt.Println()
	fmt.Printf("%-10s %-18s %12s %12s\n", "workload", "scheduler", "MB/s", "avg us")

	for _, tp := range workload.Traces() {
		for _, sched := range []host.SchedulerKind{host.CFQ, host.BFQ} {
			d, err := config.Device("intel750")
			if err != nil {
				panic(err)
			}
			cfg := config.PCSystem(d)
			cfg.Host.Scheduler = sched
			sys, err := core.NewSystem(cfg)
			if err != nil {
				panic(err)
			}
			if err := sys.Precondition(32); err != nil {
				panic(err)
			}
			gen, err := workload.NewTrace(tp, sys.VolumeBytes(), 7)
			if err != nil {
				panic(err)
			}
			res, err := sys.Run(gen, core.RunConfig{Requests: 1500, IODepth: 32})
			if err != nil {
				panic(err)
			}
			kernel := "4.4 (CFQ)"
			if sched == host.BFQ {
				kernel = "4.14 (BFQ)"
			}
			fmt.Printf("%-10s %-18s %12.1f %12.1f\n",
				tp.TraceName, kernel, res.BandwidthMBps(), res.AvgLatencyUs())
		}
	}
	fmt.Println()
	fmt.Println("CFQ both burns host CPU in scheduling and caps the dispatch window,")
	fmt.Println("so the device's internal parallelism sits idle — the paper's finding.")

	// Output:
	// OS impact on storage performance (paper §V-C, Fig. 12)
	//
	// workload   scheduler                  MB/s       avg us
	// 24HR       4.4 (CFQ)                 609.6        108.8
	// 24HR       4.14 (BFQ)                686.5        271.6
	// 24HRS      4.4 (CFQ)                 268.9        849.0
	// 24HRS      4.14 (BFQ)                274.8       3227.1
	// DAP        4.4 (CFQ)                 927.9        673.1
	// DAP        4.14 (BFQ)                971.4       2546.9
	// CFS        4.4 (CFQ)                 163.6        477.6
	// CFS        4.14 (BFQ)                246.7       1212.0
	// MSNFS      4.4 (CFQ)                 132.4        658.8
	// MSNFS      4.14 (BFQ)                172.8       1949.2
	//
	// CFQ both burns host CPU in scheduling and caps the dispatch window,
	// so the device's internal parallelism sits idle — the paper's finding.
}
