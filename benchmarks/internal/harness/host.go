package harness

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// Host readings tell a slow phase of the machine from a slow commit. They
// are printed beside the metrics and never used to adjust one.

var canarySink uint64

// CanaryALU times a 20 M-step xorshift: arithmetic only, so it moves with
// CPU steal and frequency and hardly with the memory system.
func CanaryALU() time.Duration {
	x := uint64(88172645463325252)
	t := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t)
	canarySink += x
	return d
}

// newChaseRing builds a 4 MB single-cycle permutation: every load depends
// on the one before and misses the near caches, so a lap moves when
// neighbours contend for the memory system.
func newChaseRing() []uint32 {
	const n = 1 << 20
	ring := make([]uint32, n)
	// Sattolo's algorithm with a fixed stream: one cycle through all slots.
	for i := range ring {
		ring[i] = uint32(i)
	}
	x := uint64(2463534242)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}

// CanaryChase times one lap of dependent loads through the ring.
func CanaryChase(ring []uint32) time.Duration {
	var p uint32
	t := time.Now()
	for i := 0; i < len(ring); i++ {
		p = ring[p]
	}
	d := time.Since(t)
	canarySink += uint64(p)
	return d
}

// Canaries runs both canaries n times and returns their timings in ms.
func Canaries(n int) (alu, chase []float64) {
	ring := newChaseRing() // not kept: it would be 4 MB of every heap reading
	for i := 0; i < n; i++ {
		alu = append(alu, float64(CanaryALU())/1e6)
		chase = append(chase, float64(CanaryChase(ring))/1e6)
	}
	return alu, chase
}

// PeakRSSMB reports the process's peak resident set (VmHWM) in MB.
func PeakRSSMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1e3, err == nil
		}
	}
	return 0, false
}

// PSICPUSomeAvg10 reports the share of the last ten seconds in which some
// task waited for a CPU, from /proc/pressure/cpu.
func PSICPUSomeAvg10() (float64, bool) {
	b, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "some ") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "avg10="); ok {
				x, err := strconv.ParseFloat(v, 64)
				return x, err == nil
			}
		}
	}
	return 0, false
}
