package examples_test

import (
	"bytes"
	"fmt"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/workload"
)

// Example_quickstart builds a small full-system SSD, writes data through the
// whole stack (kernel -> NVMe -> firmware -> flash), reads it back, and
// prints what the simulator measured along the way.
func Example_quickstart() {
	// A tiny device with data tracking on: reads return the bytes written.
	sys, err := core.NewSystem(config.PCSystem(config.SmallTestDevice()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("device: %s over %s, %d MB volume, %d flash dies\n",
		sys.Config().Device.Name, sys.Protocol().Kind,
		sys.VolumeBytes()>>20, sys.Config().Device.Geometry.TotalDies())

	// Write 64 KiB of patterned data at offset 1 MiB.
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	wreq := workload.Request{Write: true, Offset: 1 << 20, Length: len(payload)}
	wDone, err := sys.Submit(0, wreq, payload)
	if err != nil {
		panic(err)
	}
	fmt.Printf("write:  64 KiB completed at +%v\n", wDone)

	// Flush the cache so the data must come back from flash.
	fDone, err := sys.Flush(wDone)
	if err != nil {
		panic(err)
	}
	fmt.Printf("flush:  dirty lines programmed by +%v\n", fDone)

	// Read it back and verify byte-for-byte.
	got := make([]byte, len(payload))
	rreq := workload.Request{Offset: 1 << 20, Length: len(got)}
	rDone, err := sys.Submit(fDone, rreq, got)
	if err != nil {
		panic(err)
	}
	if !bytes.Equal(got, payload) {
		panic("data corruption: read-back differs")
	}
	fmt.Printf("read:   64 KiB verified, completed at +%v (latency %v)\n", rDone, rDone-fDone)

	// Now run a closed-loop random-read benchmark at queue depth 16.
	gen, err := workload.NewFIO(workload.RandRead, 4096, sys.VolumeBytes(), 1)
	if err != nil {
		panic(err)
	}
	res, err := sys.Run(gen, core.RunConfig{Requests: 2000, IODepth: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("bench:  4K rand-read qd16: %.1f MB/s, avg %.1f us, p99 %.1f us\n",
		res.BandwidthMBps(), res.AvgLatencyUs(), res.Latency.Percentile(99))
	fmt.Printf("flash:  %d reads, %d programs; ICL hit rate %.0f%%\n",
		sys.Flash.Stats().Reads, sys.Flash.Stats().Programs, sys.ICL.Stats().HitRate()*100)

	// Vectored submission: hand the device a whole request stream at once.
	// SubmitBatch keeps the serial depth-1 contract — results are
	// byte-identical to calling Submit in a loop — but resets its engine
	// once per window instead of once per request.
	batch := make([]workload.Request, 256)
	datas := make([][]byte, len(batch))
	for i := range batch {
		buf := make([]byte, 4096)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		batch[i] = workload.Request{Write: true, Offset: int64(i) * 4096, Length: len(buf)}
		datas[i] = buf
	}
	bDone, err := sys.SubmitBatch(sys.Now(), batch, datas, nil)
	if err != nil {
		panic(err)
	}
	windows, batched := sys.BatchStats()
	fmt.Printf("batch:  %d writes vectored over %d windows, done at +%v\n", batched, windows, bDone)

	// Read one batched write back to show the contract held.
	check := make([]byte, 4096)
	if _, err := sys.Submit(bDone, workload.Request{Offset: 100 * 4096, Length: len(check)}, check); err != nil {
		panic(err)
	}
	for j := range check {
		if check[j] != byte(100+j) {
			panic(fmt.Sprintf("batched write 100 corrupt at byte %d", j))
		}
	}
	fmt.Println("batch:  request 100 read back and verified")

	// Output:
	// device: test-small over nvme, 3 MB volume, 4 flash dies
	// write:  64 KiB completed at +39.7642us
	// flush:  dirty lines programmed by +6.26359ms
	// read:   64 KiB verified, completed at +6.30324ms (latency 39.6442us)
	// bench:  4K rand-read qd16: 1006.3 MB/s, avg 65.0 us, p99 165.2 us
	// flash:  54 reads, 16 programs; ICL hit rate 2%
	// batch:  256 writes vectored over 4 windows, done at +96.59ms
	// batch:  request 100 read back and verified
}
