// Package refdata holds the real-device reference curves the validation
// experiments compare against (Figs. 3, 4, 8, 9, 10). The values are
// digitized approximations of the dashed "Real SSD" lines in the paper's
// figures, anchored to the published device specifications (Intel 750
// 400 GB, Samsung 850 PRO, Z-SSD and 983 DCT prototypes). The curves preserve what the figures communicate:
// absolute levels at 4 KiB, saturation points, and the ordering between
// devices and patterns.
package refdata

import (
	"fmt"

	"amber/internal/workload"
)

// Depths is the I/O-depth axis of Figs. 3/4/8/9.
var Depths = []int{1, 2, 4, 8, 16, 24, 32}

// BlockSizesKiB is the block-size axis of Fig. 10.
var BlockSizesKiB = []int{4, 16, 64, 256, 1024}

// bandwidth holds MB/s per depth (aligned with Depths).
type deviceRef struct {
	bw  map[workload.Pattern][]float64
	lat map[workload.Pattern][]float64 // us per depth
	// blockBW holds MB/s per block size (aligned with BlockSizesKiB) at
	// queue depth 32.
	blockBW map[workload.Pattern][]float64
}

var devices = map[string]deviceRef{
	"intel750": {
		bw: map[workload.Pattern][]float64{
			workload.SeqRead:   {350, 700, 1250, 1900, 2150, 2220, 2250},
			workload.RandRead:  {45, 90, 180, 350, 650, 900, 1150},
			workload.SeqWrite:  {600, 850, 900, 920, 930, 930, 930},
			workload.RandWrite: {230, 240, 250, 258, 263, 265, 265},
		},
		blockBW: map[workload.Pattern][]float64{
			workload.SeqRead:   {2250, 2300, 2400, 2400, 2400},
			workload.RandRead:  {1150, 1800, 2250, 2380, 2400},
			workload.SeqWrite:  {930, 940, 950, 950, 950},
			workload.RandWrite: {265, 600, 880, 940, 950},
		},
	},
	"850pro": {
		bw: map[workload.Pattern][]float64{
			workload.SeqRead:   {380, 470, 520, 535, 545, 545, 545},
			workload.RandRead:  {38, 75, 150, 280, 430, 500, 530},
			workload.SeqWrite:  {440, 480, 495, 500, 505, 508, 510},
			workload.RandWrite: {330, 345, 355, 360, 363, 364, 365},
		},
		blockBW: map[workload.Pattern][]float64{
			workload.SeqRead:   {545, 550, 555, 555, 555},
			workload.RandRead:  {530, 545, 550, 555, 555},
			workload.SeqWrite:  {510, 515, 520, 520, 520},
			workload.RandWrite: {365, 470, 505, 515, 520},
		},
	},
	"zssd": {
		bw: map[workload.Pattern][]float64{
			workload.SeqRead:   {780, 1500, 2600, 3100, 3200, 3200, 3200},
			workload.RandRead:  {350, 700, 1350, 2300, 3000, 3100, 3100},
			workload.SeqWrite:  {550, 950, 1400, 1600, 1700, 1700, 1700},
			workload.RandWrite: {520, 900, 1300, 1500, 1550, 1570, 1580},
		},
		blockBW: map[workload.Pattern][]float64{
			workload.SeqRead:   {3200, 3250, 3300, 3300, 3300},
			workload.RandRead:  {3100, 3200, 3280, 3300, 3300},
			workload.SeqWrite:  {1700, 1750, 1780, 1800, 1800},
			workload.RandWrite: {1580, 1680, 1750, 1780, 1800},
		},
	},
	"983dct": {
		bw: map[workload.Pattern][]float64{
			workload.SeqRead:   {400, 800, 1500, 2300, 2800, 2880, 2900},
			workload.RandRead:  {50, 100, 200, 390, 750, 1050, 1300},
			workload.SeqWrite:  {700, 1100, 1350, 1400, 1400, 1400, 1400},
			workload.RandWrite: {450, 480, 500, 510, 515, 518, 520},
		},
		blockBW: map[workload.Pattern][]float64{
			workload.SeqRead:   {2900, 2950, 3000, 3000, 3000},
			workload.RandRead:  {1300, 2100, 2700, 2950, 3000},
			workload.SeqWrite:  {1400, 1420, 1450, 1450, 1450},
			workload.RandWrite: {520, 900, 1250, 1400, 1450},
		},
	},
}

// DeviceNames lists the reference devices in the paper's order.
func DeviceNames() []string {
	return []string{"intel750", "850pro", "zssd", "983dct"}
}

// Bandwidth returns the reference bandwidth curve (MB/s over Depths) of
// the device for the pattern at 4 KiB blocks.
func Bandwidth(device string, p workload.Pattern) ([]float64, error) {
	d, ok := devices[device]
	if !ok {
		return nil, fmt.Errorf("refdata: unknown device %q", device)
	}
	c, ok := d.bw[p]
	if !ok {
		return nil, fmt.Errorf("refdata: no %v curve for %q", p, device)
	}
	return c, nil
}

// Latency returns the reference latency curve (us over Depths), derived
// from the bandwidth curve by Little's law (depth * blocksize / bandwidth),
// which is how closed-loop FIO latency and bandwidth relate.
func Latency(device string, p workload.Pattern) ([]float64, error) {
	bw, err := Bandwidth(device, p)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(bw))
	for i, d := range Depths {
		if bw[i] > 0 {
			out[i] = float64(d) * 4096 / (bw[i] * 1e6) * 1e6
		}
	}
	return out, nil
}

// BlockBandwidth returns the reference bandwidth (MB/s over BlockSizesKiB)
// at queue depth 32 for Fig. 10.
func BlockBandwidth(device string, p workload.Pattern) ([]float64, error) {
	d, ok := devices[device]
	if !ok {
		return nil, fmt.Errorf("refdata: unknown device %q", device)
	}
	c, ok := d.blockBW[p]
	if !ok {
		return nil, fmt.Errorf("refdata: no %v block curve for %q", p, device)
	}
	return c, nil
}
